#include "driver/service/acceptor.hh"

#include <exception>
#include <utility>

#include <sys/socket.h>

#include "sim/logging.hh"

namespace tdm::driver::service {

Acceptor::Acceptor(const Address &addr, Body body)
    : body_(std::move(body)), listener_(addr)
{
}

Acceptor::~Acceptor() { stop(); }

void
Acceptor::serve()
{
    while (!stopping_.load()) {
        Socket sock = listener_.accept();
        if (!sock.valid()) {
            if (!stopping_.load())
                sim::warn("accept failed on ", address().display(),
                          ", stopping");
            break;
        }
        reapFinished();
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_.load())
            break;
        conns_.push_back(std::make_unique<Conn>());
        Conn &conn = *conns_.back();
        conn.fd = sock.fd();
        conn.thr =
            std::thread([this, &conn, s = std::move(sock)]() mutable {
                run(conn, s);
            });
    }
    // Whether stop() ended the loop or accept() failed, every live fd
    // must be shut down before the records leave the list; call_once
    // returns only once that teardown has finished.
    stop();
    std::list<std::unique_ptr<Conn>> conns;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        conns.swap(conns_);
    }
    for (const auto &c : conns)
        c->thr.join();
}

void
Acceptor::run(Conn &conn, Socket &sock)
{
    try {
        body_(sock);
    } catch (const std::exception &e) {
        // One failed connection must not take the daemon down.
        sim::warn("connection on ", address().display(),
                  " failed: ", e.what());
    }
    // Drop the fd from stop()'s shutdown set *before* closing: once
    // closed, the number can be reused by an unrelated descriptor.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        conn.fd = -1;
    }
    sock.close();
    conn.done.store(true); // last: the reaper may join immediately
}

void
Acceptor::stop()
{
    std::call_once(stopOnce_, [this] {
        stopping_.store(true);
        listener_.shutdownNow();
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &c : conns_)
            if (c->fd >= 0)
                ::shutdown(c->fd, SHUT_RDWR);
    });
}

std::size_t
Acceptor::trackedConnections() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return conns_.size();
}

void
Acceptor::reapFinished()
{
    std::list<std::unique_ptr<Conn>> finished;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = conns_.begin(); it != conns_.end();) {
            if ((*it)->done.load()) {
                finished.push_back(std::move(*it));
                it = conns_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (const auto &c : finished)
        c->thr.join();
}

} // namespace tdm::driver::service
