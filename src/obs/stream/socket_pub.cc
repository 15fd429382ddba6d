/**
 * @file
 * SocketPublisher implementation.
 */

#include "obs/stream/socket_pub.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "util/logging.hh"

namespace iat::obs::stream {

namespace {

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

} // namespace

SocketPublisher::SocketPublisher(std::string path)
    : path_(std::move(path))
{
    sockaddr_un addr{};
    if (path_.size() >= sizeof(addr.sun_path)) {
        warn("stream: publisher path too long: %s", path_.c_str());
        return;
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        warn("stream: socket(): %s", std::strerror(errno));
        return;
    }
    ::unlink(path_.c_str());
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path_.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 8) != 0 || !setNonBlocking(fd)) {
        warn("stream: cannot listen on %s: %s", path_.c_str(),
             std::strerror(errno));
        ::close(fd);
        return;
    }
    listen_fd_ = fd;
}

SocketPublisher::~SocketPublisher()
{
    for (auto &client : clients_)
        ::close(client.fd);
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        ::unlink(path_.c_str());
    }
}

void
SocketPublisher::pump()
{
    if (listen_fd_ < 0)
        return;
    for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            break; // EAGAIN/EWOULDBLOCK: nobody waiting
        if (!setNonBlocking(fd)) {
            ::close(fd);
            continue;
        }
        Client client{fd, 0};
        // Late subscriber catch-up: without the header a client
        // cannot interpret sample rows.
        if (!last_header_.empty() &&
            !sendLine(client, last_header_)) {
            closeClient(client);
            continue;
        }
        clients_.push_back(client);
    }
}

bool
SocketPublisher::sendLine(Client &client, const std::string &json)
{
    // One write per line keeps framing trivial; the extra copy per
    // record is irrelevant at sampling cadence.
    std::string line = json;
    line += '\n';
    const ssize_t n =
        ::send(client.fd, line.data(), line.size(),
               MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n == static_cast<ssize_t>(line.size())) {
        client.failures = 0;
        ++sent_;
        return true;
    }
    // Partial writes and EAGAIN both mean the client is not keeping
    // up; rather than buffer unboundedly we drop this record for the
    // client and disconnect it after a bounded run of failures.
    ++dropped_;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)
        return false; // dead peer
    return ++client.failures <= kMaxSendFailures;
}

void
SocketPublisher::closeClient(Client &client)
{
    ::close(client.fd);
    client.fd = -1;
    ++disconnects_;
}

void
SocketPublisher::handle(const StreamRecord &record)
{
    if (record.kind == StreamKind::Header)
        last_header_ = record.json;
    if (listen_fd_ < 0)
        return;
    for (auto &client : clients_) {
        if (!sendLine(client, record.json))
            closeClient(client);
    }
    clients_.erase(
        std::remove_if(clients_.begin(), clients_.end(),
                       [](const Client &c) { return c.fd < 0; }),
        clients_.end());
}

} // namespace iat::obs::stream
