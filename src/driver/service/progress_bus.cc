#include "driver/service/progress_bus.hh"

#include <algorithm>

namespace tdm::driver::service {

bool
ProgressBus::Subscription::next(BusEvent &out,
                                std::chrono::milliseconds timeout)
{
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait_for(lock, timeout,
                 [&] { return !q_.empty() || closed_; });
    if (q_.empty())
        return false;
    out = std::move(q_.front());
    q_.pop_front();
    return true;
}

bool
ProgressBus::Subscription::closed() const
{
    std::lock_guard<std::mutex> lock(m_);
    return closed_;
}

std::uint64_t
ProgressBus::Subscription::dropped() const
{
    std::lock_guard<std::mutex> lock(m_);
    return dropped_;
}

std::size_t
ProgressBus::Subscription::queued() const
{
    std::lock_guard<std::mutex> lock(m_);
    return q_.size();
}

void
ProgressBus::Subscription::push(const BusEvent &ev)
{
    {
        std::lock_guard<std::mutex> lock(m_);
        if (closed_)
            return;
        if (q_.size() >= cap_) {
            // Bounded queue, freshest-wins: shed the oldest event.
            q_.pop_front();
            ++dropped_;
        }
        q_.push_back(ev);
    }
    cv_.notify_one();
}

void
ProgressBus::Subscription::close()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        closed_ = true;
    }
    cv_.notify_all();
}

std::shared_ptr<ProgressBus::Subscription>
ProgressBus::subscribe(std::size_t cap)
{
    auto sub = std::make_shared<Subscription>(std::max<std::size_t>(
        cap, 1));
    std::lock_guard<std::mutex> lock(m_);
    if (closed_) {
        sub->close();
        return sub; // born closed: its consumer exits immediately
    }
    subs_.push_back(sub);
    return sub;
}

void
ProgressBus::unsubscribe(const std::shared_ptr<Subscription> &sub)
{
    if (!sub)
        return;
    {
        std::lock_guard<std::mutex> lock(m_);
        auto it = std::find(subs_.begin(), subs_.end(), sub);
        if (it != subs_.end()) {
            droppedRetired_ += sub->dropped();
            subs_.erase(it);
        }
    }
    sub->close();
}

void
ProgressBus::publish(const std::string &name, std::string_view json)
{
    // Snapshot the subscriber list so a slow push never holds the bus
    // lock (pushes only take the per-subscription lock anyway).
    std::vector<std::shared_ptr<Subscription>> subs;
    {
        std::lock_guard<std::mutex> lock(m_);
        if (closed_)
            return;
        ++published_;
        subs = subs_;
    }
    const BusEvent ev{name, std::string(json)};
    for (const auto &sub : subs)
        sub->push(ev);
}

void
ProgressBus::close()
{
    std::vector<std::shared_ptr<Subscription>> subs;
    {
        std::lock_guard<std::mutex> lock(m_);
        closed_ = true;
        subs.swap(subs_);
    }
    for (const auto &sub : subs)
        sub->close();
}

std::uint64_t
ProgressBus::published() const
{
    std::lock_guard<std::mutex> lock(m_);
    return published_;
}

std::uint64_t
ProgressBus::dropped() const
{
    std::lock_guard<std::mutex> lock(m_);
    std::uint64_t total = droppedRetired_;
    for (const auto &sub : subs_)
        total += sub->dropped();
    return total;
}

std::size_t
ProgressBus::subscribers() const
{
    std::lock_guard<std::mutex> lock(m_);
    return subs_.size();
}

} // namespace tdm::driver::service
