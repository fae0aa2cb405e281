/**
 * @file
 * The progress bus: fan-out of live campaign events to any number of
 * subscribers, with bounded per-subscriber queues.
 *
 * The campaign server publishes one event per protocol milestone
 * (accepted / point / progress / done) and the dashboard's SSE
 * sessions each hold a subscription. Publishing never blocks and
 * never waits on a consumer: a subscriber that falls behind its queue
 * bound loses the *oldest* queued events (freshest data wins — this
 * is a live view, not a journal) and its drop counter records how
 * many. A fast subscriber therefore sees every event in publish
 * order; a stalled browser tab costs nothing but its own history.
 *
 * The bus is constructed only when the HTTP dashboard is enabled, so
 * a daemon without --http carries no bus, no subscribers, and no
 * per-event work at all.
 */

#ifndef TDM_DRIVER_SERVICE_PROGRESS_BUS_HH
#define TDM_DRIVER_SERVICE_PROGRESS_BUS_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tdm::driver::service {

/** One bus event: an SSE event name plus its JSON payload (one line,
 *  no trailing newline). */
struct BusEvent
{
    std::string name; ///< SSE event type ("point", "progress", ...)
    std::string json; ///< payload, rendered once by the publisher
};

/**
 * The bus. subscribe() hands out shared subscriptions; publish() fans
 * an event into every live queue. All methods are thread-safe.
 */
class ProgressBus
{
  public:
    /**
     * Default per-subscriber queue bound (events, not bytes). It must
     * absorb a subscriber's scheduling stall while a busy server
     * publishes about 7,000 events/s (two per point). Over 751
     * service_replay rounds on a 4-vCPU host, the peak depth of the
     * SSE subscriber's queue was 50 events at the median, 312 at p99
     * and 458 at most, so 256 drops events in about 1.5% of rounds.
     * At 8–10 KB a point event, a stalled subscriber holds about
     * 10 MB at most.
     */
    static constexpr std::size_t kDefaultQueueCap = 1024;

    /**
     * One subscriber's bounded queue. Obtained from subscribe();
     * consumed from exactly one thread (the SSE session); dropped by
     * unsubscribe() or abandoned (the bus holds only a weak count —
     * an abandoned subscription stops receiving on the next publish).
     */
    class Subscription
    {
        friend class ProgressBus;

      public:
        explicit Subscription(std::size_t cap) : cap_(cap) {}

        /**
         * Pop the next event, waiting up to @p timeout. Returns false
         * on timeout with the queue still open, and — once the bus is
         * closed — false after the queue drains. Check closed() to
         * tell the two apart.
         */
        bool next(BusEvent &out, std::chrono::milliseconds timeout);

        /** The bus shut down (no further events will arrive). */
        bool closed() const;

        /** Events lost to the queue bound so far. */
        std::uint64_t dropped() const;

        /** Events currently queued. */
        std::size_t queued() const;

      private:
        void push(const BusEvent &ev); ///< called by the bus
        void close();                  ///< called by the bus

        mutable std::mutex m_;
        std::condition_variable cv_;
        std::deque<BusEvent> q_;
        std::size_t cap_;
        std::uint64_t dropped_ = 0;
        bool closed_ = false;
    };

    /** Register a subscriber with a queue bound of @p cap events. */
    std::shared_ptr<Subscription>
    subscribe(std::size_t cap = kDefaultQueueCap);

    /** Remove @p sub and close its queue (its consumer unblocks). */
    void unsubscribe(const std::shared_ptr<Subscription> &sub);

    /** Fan @p name / @p json out to every subscriber. Never blocks on
     *  consumers; over-bound queues drop their oldest event. */
    void publish(const std::string &name, std::string_view json);

    /** Close every subscription and reject future ones (shutdown). */
    void close();

    std::uint64_t published() const;
    /** Total events dropped across all subscribers, past and
     *  present (unsubscribed subscribers fold their count in). */
    std::uint64_t dropped() const;
    std::size_t subscribers() const;

  private:
    mutable std::mutex m_;
    std::vector<std::shared_ptr<Subscription>> subs_;
    std::uint64_t published_ = 0;
    std::uint64_t droppedRetired_ = 0; ///< from departed subscribers
    bool closed_ = false;
};

} // namespace tdm::driver::service

#endif // TDM_DRIVER_SERVICE_PROGRESS_BUS_HH
