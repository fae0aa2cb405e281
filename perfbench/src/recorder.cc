#include "recorder.hh"

#include <utility>

#include "driver/report/json_writer.hh"

namespace perfbench {

using tdm::driver::report::jsonEscape;
using tdm::driver::report::jsonNumber;

namespace {

constexpr std::size_t kMaxFailureMessages = 20;

std::int64_t
nsSince(Clock::time_point origin, Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                                origin)
        .count();
}

} // namespace

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

Recorder::Recorder() : origin_(Clock::now()) {}

void
Recorder::sample(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    series_[name].push_back(value);
}

void
Recorder::check(bool ok, const std::string &what)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    if (failures_.size() < kMaxFailureMessages)
        failures_.push_back(what);
}

void
Recorder::note(const std::string &key, const std::string &value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    notes_[key] = value;
}

std::uint64_t
Recorder::reserveId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return nextId_++;
}

void
Recorder::span(const std::string &name, std::uint64_t parent, int rep,
               Clock::time_point start, Clock::time_point end,
               const SpanAttrs &attrs)
{
    spanAs(reserveId(), name, parent, rep, start, end, attrs);
}

void
Recorder::spanAs(std::uint64_t id, const std::string &name,
                 std::uint64_t parent, int rep, Clock::time_point start,
                 Clock::time_point end, const SpanAttrs &attrs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({id, parent, rep, name, nsSince(origin_, start),
                      nsSince(origin_, end), attrs});
}

void
Recorder::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\"attempted\":" << attempted_ << ",\"failed\":" << failed_
       << ",\"failures\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i)
        os << (i ? "," : "") << '"' << jsonEscape(failures_[i]) << '"';
    os << "],\"notes\":{";
    bool first = true;
    for (const auto &[k, v] : notes_) {
        os << (first ? "" : ",") << '"' << jsonEscape(k) << "\":\""
           << jsonEscape(v) << '"';
        first = false;
    }
    os << "},\"series\":{";
    first = true;
    for (const auto &[k, values] : series_) {
        os << (first ? "" : ",") << '"' << jsonEscape(k) << "\":[";
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (i)
                os << ',';
            jsonNumber(os, values[i]);
        }
        os << ']';
        first = false;
    }
    os << "}}";
}

void
Recorder::writeSpans(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const SpanRecord &s : spans_) {
        os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"rep\":" << s.rep << ",\"name\":\"" << jsonEscape(s.name)
           << "\",\"start_ns\":" << s.startNs
           << ",\"end_ns\":" << s.endNs;
        const SpanAttrs &a = s.attrs;
        if (!a.runtime.empty())
            os << ",\"runtime\":\"" << jsonEscape(a.runtime) << '"';
        if (a.cores)
            os << ",\"cores\":" << a.cores;
        if (!a.source.empty())
            os << ",\"source\":\"" << jsonEscape(a.source) << '"';
        if (!a.kind.empty())
            os << ",\"kind\":\"" << jsonEscape(a.kind) << '"';
        if (a.tasks)
            os << ",\"tasks\":" << a.tasks;
        os << "}\n";
    }
}

ScopedSpan::ScopedSpan(Recorder *rec, const char *name,
                       std::uint64_t parent, int rep, SpanAttrs attrs)
    : rec_(rec), name_(name), parent_(parent), rep_(rep),
      attrs_(std::move(attrs))
{
    if (!rec_)
        return;
    id_ = rec_->reserveId();
    start_ = Clock::now();
}

ScopedSpan::~ScopedSpan()
{
    if (rec_)
        rec_->spanAs(id_, name_, parent_, rep_, start_, Clock::now(),
                    attrs_);
}

} // namespace perfbench
