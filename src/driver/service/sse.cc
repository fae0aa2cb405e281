#include "driver/service/sse.hh"

#include <chrono>

namespace tdm::driver::service {

std::string
sseFrame(const std::string &name, const std::string &data)
{
    std::string out;
    out.reserve(data.size() + name.size() + 32);
    if (!name.empty()) {
        out += "event: ";
        out += name;
        out += '\n';
    }
    // One "data:" line per payload line; a trailing newline in the
    // payload contributes an empty data line, preserving the bytes
    // the consumer reassembles.
    std::size_t pos = 0;
    while (true) {
        const std::size_t nl = data.find('\n', pos);
        out += "data: ";
        out.append(data, pos,
                   nl == std::string::npos ? std::string::npos
                                           : nl - pos);
        out += '\n';
        if (nl == std::string::npos)
            break;
        pos = nl + 1;
        if (pos > data.size())
            break;
    }
    out += '\n';
    return out;
}

std::string
sseResponseHead()
{
    return "HTTP/1.1 200 OK\r\n"
           "Server: campaign_serve\r\n"
           "Content-Type: text/event-stream\r\n"
           "Cache-Control: no-store\r\n"
           "Connection: close\r\n"
           "\r\n";
}

std::uint64_t
serveSseSession(Socket &sock, ProgressBus &bus,
                const std::atomic<bool> &stopping)
{
    auto sub = bus.subscribe();
    std::uint64_t forwarded = 0;
    if (!sock.sendAll(sseResponseHead())) {
        bus.unsubscribe(sub);
        return forwarded;
    }
    // Tell the client it is live before the first real event.
    if (!sock.sendAll(": connected\n\n")) {
        bus.unsubscribe(sub);
        return forwarded;
    }

    constexpr auto kPollInterval = std::chrono::milliseconds(250);
    constexpr int kKeepaliveIdlePolls = 60; // ~15s of silence
    int idlePolls = 0;
    while (!stopping.load()) {
        BusEvent ev;
        if (sub->next(ev, kPollInterval)) {
            idlePolls = 0;
            if (!sock.sendAll(sseFrame(ev.name, ev.json)))
                break; // client went away
            ++forwarded;
            continue;
        }
        if (sub->closed())
            break; // bus shut down and the queue is drained
        if (++idlePolls >= kKeepaliveIdlePolls) {
            idlePolls = 0;
            if (!sock.sendAll(": keepalive\n\n"))
                break;
        }
    }
    bus.unsubscribe(sub);
    return forwarded;
}

} // namespace tdm::driver::service
