/**
 * @file
 * The live-subscriber sink behind `iatsvc --publish`: a listening
 * Unix-domain stream socket that pushes every record, as one JSON
 * line, to every connected client.
 *
 * The publisher is strictly non-blocking: accept() is polled from
 * the service loop (pump()), writes use MSG_DONTWAIT, and a client
 * that cannot keep up is disconnected once more than
 * kMaxSendFailures sends in a row fail, rather than ever stalling
 * the simulation. Late subscribers are caught up with the most
 * recent Header record so they can interpret Sample rows without
 * replaying the stream from the start.
 */

#ifndef IATSIM_OBS_STREAM_SOCKET_PUB_HH
#define IATSIM_OBS_STREAM_SOCKET_PUB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/stream/exporter.hh"

namespace iat::obs::stream {

/** Unix-socket publisher; see file comment. */
class SocketPublisher final : public Exporter
{
  public:
    /** Failed sends in a row a client may have; the next failure
     *  disconnects it. */
    static constexpr unsigned kMaxSendFailures = 64;

    /**
     * Bind and listen on @p path (an existing socket file is
     * unlinked first). On failure the sink stays inert: ok() is
     * false and handle() sends nothing.
     */
    explicit SocketPublisher(std::string path);
    ~SocketPublisher() override;

    SocketPublisher(const SocketPublisher &) = delete;
    SocketPublisher &operator=(const SocketPublisher &) = delete;

    const char *name() const override { return "socket"; }
    void handle(const StreamRecord &record) override;

    /** Accept pending subscribers. Call from the service loop;
     *  never blocks. */
    void pump();

    /** Is the socket bound and listening? */
    bool ok() const { return listen_fd_ >= 0; }

    std::size_t subscriberCount() const { return clients_.size(); }
    std::uint64_t sent() const { return sent_; }
    std::uint64_t dropped() const override { return dropped_; }
    std::uint64_t disconnects() const { return disconnects_; }

  private:
    struct Client
    {
        int fd = -1;
        unsigned failures = 0;
    };

    /** Send one line to one client; false when it must be dropped. */
    bool sendLine(Client &client, const std::string &json);
    void closeClient(Client &client);

    std::string path_;
    int listen_fd_ = -1;
    std::vector<Client> clients_;
    std::string last_header_; ///< catch-up line for late subscribers

    std::uint64_t sent_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t disconnects_ = 0;
};

} // namespace iat::obs::stream

#endif // IATSIM_OBS_STREAM_SOCKET_PUB_HH
