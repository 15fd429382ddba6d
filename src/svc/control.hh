/**
 * @file
 * The control socket: a Unix-domain stream socket speaking
 * newline-delimited JSON, one command object in, one reply object
 * out. This is the operator surface of service mode -- `iatctl
 * service ...` and the tests both talk to it.
 *
 * The server is strictly non-blocking and single-threaded: the
 * service loop calls pump() periodically; pump() accepts pending
 * clients, reads whatever bytes are available, dispatches every
 * complete line through the handler, and drains reply bytes that a
 * slow client could not take earlier. A client that disconnects
 * mid-line simply discards the fragment (the command was never
 * complete, so it never ran). Replies are whatever the handler
 * returns, sent as one line.
 */

#ifndef IATSIM_SVC_CONTROL_HH
#define IATSIM_SVC_CONTROL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace iat::svc {

/** NDJSON command server; see file comment. */
class ControlServer
{
  public:
    /** Maps one received line to one reply line (no newline). */
    using Handler = std::function<std::string(const std::string &)>;

    /**
     * Bind and listen on @p path (an existing socket file is
     * unlinked first). On failure the server is inert: ok() is
     * false and pump() does nothing.
     */
    explicit ControlServer(std::string path);
    ~ControlServer();

    ControlServer(const ControlServer &) = delete;
    ControlServer &operator=(const ControlServer &) = delete;

    /**
     * One non-blocking service pass: accept, read, dispatch, write.
     * Returns the number of commands dispatched this pass.
     */
    std::size_t pump(const Handler &handler);

    bool ok() const { return listen_fd_ >= 0; }
    const std::string &path() const { return path_; }
    std::uint64_t commands() const { return commands_; }
    std::uint64_t disconnects() const { return disconnects_; }

  private:
    struct Client
    {
        int fd = -1;
        std::string inbuf;  ///< bytes up to the next newline
        std::string outbuf; ///< reply bytes the client has not taken
    };

    void acceptPending();
    /** Read + dispatch for one client; false when it disconnected. */
    bool serveClient(Client &client, const Handler &handler,
                     std::size_t &dispatched);
    /** Push outbuf bytes; false when the client must be dropped. */
    bool flushClient(Client &client);
    void closeClient(Client &client);

    std::string path_;
    int listen_fd_ = -1;
    std::vector<Client> clients_;
    std::uint64_t commands_ = 0;
    std::uint64_t disconnects_ = 0;
};

} // namespace iat::svc

#endif // IATSIM_SVC_CONTROL_HH
