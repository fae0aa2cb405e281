/**
 * @file
 * What one benchmark run measured: named sample series, output-check
 * accounting, free-form notes and — in traced runs — spans.
 *
 * Spans are kept in memory and written out once, when the run ends.
 * Each span has an id, the id of the span that caused it (0 for a
 * root), the repetition it belongs to, and its start/end on the
 * steady clock. Untraced repetitions pass no recorder to their spans,
 * so they record nothing and read no clock for them.
 */

#ifndef PERFBENCH_RECORDER_HH
#define PERFBENCH_RECORDER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock instants. */
double secondsBetween(Clock::time_point a, Clock::time_point b);

/** Optional span attributes; empty/zero fields are not written. */
struct SpanAttrs
{
    std::string runtime; ///< modelled runtime: sw / tdm / carbon / tss
    unsigned cores = 0;  ///< modelled core count
    std::string source;  ///< engine JobSource name of a point
    std::string kind;    ///< sub-kind (fork leg kind, check kind)
    std::uint64_t tasks = 0; ///< simulated tasks of a point
};

class Recorder
{
  public:
    Recorder();

    /** Append @p value to the series @p name. */
    void sample(const std::string &name, double value);

    /** One checked operation: counts an attempt, and a failure (with
     *  @p what kept for the report) when @p ok is false. */
    void check(bool ok, const std::string &what);

    /** Attach a string fact to the run's output. */
    void note(const std::string &key, const std::string &value);

    /** Record a finished span. */
    void span(const std::string &name, std::uint64_t parent, int rep,
              Clock::time_point start, Clock::time_point end,
              const SpanAttrs &attrs = {});

    /** Reserve a span id for a span recorded later with spanAs()
     *  (a parent whose children finish first). */
    std::uint64_t reserveId();

    /** Record a span under an id from reserveId(). */
    void spanAs(std::uint64_t id, const std::string &name,
                std::uint64_t parent, int rep, Clock::time_point start,
                Clock::time_point end, const SpanAttrs &attrs = {});

    /** The run's series, checks and notes as one JSON object. */
    void writeJson(std::ostream &os) const;

    /** All spans as JSON lines (one object per line). */
    void writeSpans(std::ostream &os) const;

  private:
    struct SpanRecord
    {
        std::uint64_t id;
        std::uint64_t parent;
        int rep;
        std::string name;
        std::int64_t startNs;
        std::int64_t endNs;
        SpanAttrs attrs;
    };

    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::map<std::string, std::vector<double>> series_;
    std::map<std::string, std::string> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
    std::uint64_t nextId_ = 1;
    std::vector<SpanRecord> spans_;
};

/**
 * Scoped span: records [construction, destruction) under @p parent.
 * Does nothing (no clock read) when @p rec is null.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Recorder *rec, const char *name, std::uint64_t parent,
               int rep, SpanAttrs attrs = {});
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** This span's id, for children (0 when not recording). */
    std::uint64_t id() const { return id_; }

  private:
    Recorder *rec_;
    const char *name_;
    std::uint64_t parent_;
    int rep_;
    SpanAttrs attrs_;
    std::uint64_t id_ = 0;
    Clock::time_point start_;
};

} // namespace perfbench

#endif // PERFBENCH_RECORDER_HH
