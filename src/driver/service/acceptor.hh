/**
 * @file
 * The thread-per-connection skeleton both service listeners share:
 * the line protocol (CampaignServer) and the dashboard (HttpServer)
 * each supply only a connection body.
 *
 * One accept loop, one record per connection (fd, done flag, thread),
 * and one teardown:
 *
 *  - Every accept first joins the threads whose body has returned, so
 *    a long-running daemon holds threads only for live connections,
 *    not for every connection it ever served.
 *  - stop() runs once (call_once): it shuts the listener and every
 *    live fd down, which unblocks accept() and every body's reads. It
 *    never joins, so a body may call it (the shutdown op) while other
 *    threads (the signal watcher) call it too.
 *  - serve() — run by whoever owns the accept loop — joins every
 *    connection thread before it returns.
 *  - A body never closes its socket: the acceptor clears the record's
 *    fd under the lock first, so stop() cannot shut down a descriptor
 *    the kernel has already handed to someone else.
 */

#ifndef TDM_DRIVER_SERVICE_ACCEPTOR_HH
#define TDM_DRIVER_SERVICE_ACCEPTOR_HH

#include <atomic>
#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <thread>

#include "driver/service/socket.hh"

namespace tdm::driver::service {

class Acceptor
{
  public:
    /** One connection's work, on that connection's own thread. It
     *  returns once its reads report EOF or error (stop() forces
     *  both); the acceptor closes the socket afterwards. An exception
     *  it throws is logged and ends only that connection. */
    using Body = std::function<void(Socket &sock)>;

    /** Bind @p addr; throws std::runtime_error when it cannot. */
    Acceptor(const Address &addr, Body body);

    /** stop(); serve() must have returned (or never been entered). */
    ~Acceptor();

    Acceptor(const Acceptor &) = delete;
    Acceptor &operator=(const Acceptor &) = delete;

    /** The bound address (ephemeral tcp ports resolved). */
    const Address &address() const { return listener_.address(); }

    /** Accept connections on the calling thread until stop() (an
     *  accept failure stops too), then join every connection thread
     *  and return. */
    void serve();

    /** Stop accepting and shut down every live connection. Never
     *  joins; callable from any thread, a body's included, any number
     *  of times (later callers wait for the first to finish). */
    void stop();

    /** Raised by stop(); long-lived bodies poll it. */
    const std::atomic<bool> &stopping() const { return stopping_; }

    /** Connection records not yet reaped (live plus finished threads
     *  awaiting their join at the next accept). A long-running daemon
     *  keeps this near its live-connection count; 0 once serve() has
     *  returned. */
    std::size_t trackedConnections() const;

  private:
    struct Conn
    {
        int fd = -1; ///< -1 once the socket is about to be closed
        std::atomic<bool> done{false};
        std::thread thr;
    };

    void reapFinished();
    void run(Conn &conn, Socket &sock);

    Body body_;
    Listener listener_;
    std::atomic<bool> stopping_{false};

    mutable std::mutex mutex_;
    std::list<std::unique_ptr<Conn>> conns_;
    std::once_flag stopOnce_;
};

} // namespace tdm::driver::service

#endif // TDM_DRIVER_SERVICE_ACCEPTOR_HH
