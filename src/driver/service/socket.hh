/**
 * @file
 * Local-only stream sockets for the campaign service.
 *
 * Addresses are "unix:PATH" or "tcp:HOST:PORT" with HOST restricted to
 * the loopback interface — the service deliberately cannot listen on a
 * routable address (it executes submitted experiment specs; exposure
 * beyond the machine is an explicit non-goal). "tcp:127.0.0.1:0" binds
 * an ephemeral port, reported by Listener::boundPort() — this is how
 * tests and CI avoid port collisions.
 *
 * Socket wraps a connected fd with line-buffered reads (the protocol
 * is line-delimited, and a line is capped at kMaxLineBytes so a peer
 * that never sends '\n' cannot grow the buffer without bound) and
 * EINTR/partial-write-safe sends; writes use MSG_NOSIGNAL so a
 * vanished peer surfaces as an error, not SIGPIPE. Every TCP socket,
 * accepted or connected, sets TCP_NODELAY: each message goes out in
 * one sendAll(), and Nagle's algorithm would otherwise hold it until
 * the peer's delayed ACK of the previous one.
 */

#ifndef TDM_DRIVER_SERVICE_SOCKET_HH
#define TDM_DRIVER_SERVICE_SOCKET_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace tdm::driver::service {

/** A parsed service address. */
struct Address
{
    bool isUnix = false;
    std::string path;        ///< unix socket path
    std::uint16_t port = 0;  ///< tcp port (0 = ephemeral)

    /** Canonical rendering ("unix:/run/x.sock", "tcp:127.0.0.1:7077"). */
    std::string display() const;
};

/** Parse "unix:PATH" / "tcp:HOST:PORT"; throws std::runtime_error on a
 *  malformed or non-loopback address. */
Address parseAddress(const std::string &text);

/** A connected stream socket (move-only RAII fd). */
class Socket
{
  public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket();

    Socket(Socket &&other) noexcept;
    Socket &operator=(Socket &&other) noexcept;
    Socket(const Socket &) = delete;
    Socket &operator=(const Socket &) = delete;

    bool valid() const { return fd_ >= 0; }
    int fd() const { return fd_; }

    /** Write all of @p data; false on any send error. */
    bool sendAll(const std::string &data);

    /** Longest line readLine() accepts: far above the largest line
     *  any in-repo client or server sends (fig12's 90-point submit,
     *  8,947 bytes; a point event with the full metric tree, about
     *  7.6 KB). */
    static constexpr std::size_t kMaxLineBytes = std::size_t{8} << 20;

    /** Next '\n'-terminated line (terminator stripped); false on EOF,
     *  error, or a line longer than kMaxLineBytes (lineTooLong() then
     *  reports it; the stream cannot be framed past that point). A
     *  final unterminated line is returned as-is. */
    bool readLine(std::string &line);

    /** The last readLine() failed on an over-long line. */
    bool lineTooLong() const { return lineTooLong_; }

    /** Raw read of up to @p cap bytes (EINTR-safe). Returns the byte
     *  count, 0 on EOF, -1 on error. Used by the HTTP layer, whose
     *  framing is not line-delimited; do not mix with readLine. */
    long readSome(char *buf, std::size_t cap);

    void close();

  private:
    int fd_ = -1;
    std::string buf_; ///< bytes read past the last returned line
    bool lineTooLong_ = false;
};

/** A bound, listening socket. */
class Listener
{
  public:
    /** Bind and listen; throws std::runtime_error on failure. A unix
     *  listener removes a stale socket file at its path first, and
     *  unlinks the path on destruction. */
    explicit Listener(const Address &addr);
    ~Listener();

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /** Accept one connection (blocking); an invalid Socket after
     *  shutdownNow() or on error. */
    Socket accept();

    /** The actual bound address (ephemeral tcp port resolved). */
    const Address &address() const { return addr_; }
    std::uint16_t boundPort() const { return addr_.port; }

    /** Unblock accept() from another thread. */
    void shutdownNow();

  private:
    int fd_ = -1;
    Address addr_;
};

/** Connect to a service; throws std::runtime_error on failure. */
Socket connectTo(const Address &addr);

} // namespace tdm::driver::service

#endif // TDM_DRIVER_SERVICE_SOCKET_HH
