#include "driver/report/json_writer.hh"

#include <charconv>
#include <cmath>

namespace tdm::driver::report {

namespace {

/** Room for any "%.17g" rendering; the longest is 24 bytes
 *  ("-2.2250738585072014e-308"). */
constexpr std::size_t kDoubleChars = 32;

/** Render @p v into @p buf; returns the length. to_chars with an
 *  explicit precision is specified as printf's "%.*g" in the C
 *  locale, without printf's format parsing or iostream's locale and
 *  sentry machinery. */
std::size_t
renderDouble(char (&buf)[kDoubleChars], double v)
{
    const auto r = std::to_chars(buf, buf + kDoubleChars, v,
                                 std::chars_format::general, 17);
    return static_cast<std::size_t>(r.ptr - buf);
}

} // namespace

void
appendDouble(std::string &out, double v)
{
    char buf[kDoubleChars];
    out.append(buf, renderDouble(buf, v));
}

void
jsonNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[kDoubleChars];
    os.write(buf, static_cast<std::streamsize>(renderDouble(buf, v)));
}

void
jsonNumber(std::string &out, double v)
{
    if (std::isfinite(v))
        appendDouble(out, v);
    else
        out += "null";
}

namespace {

/** Finite doubles round-trip at max_digits10; non-finite become null. */
void
num(std::ostream &os, double v)
{
    jsonNumber(os, v);
}

void
writeJob(std::ostream &os, const campaign::JobResult &j,
         const std::string &metrics_pattern, const char *indent)
{
    const RunSummary &s = j.summary;
    os << indent << "{\n";
    os << indent << "  \"label\": \"" << jsonEscape(j.label) << "\",\n";
    os << indent << "  \"digest\": \"" << jsonEscape(j.digest) << "\",\n";
    os << indent << "  \"spec\": {";
    {
        bool first = true;
        for (const auto &[k, v] : j.spec.entries()) {
            os << (first ? "\n" : ",\n") << indent << "    \""
               << jsonEscape(k) << "\": \"" << jsonEscape(v) << "\"";
            first = false;
        }
        if (!first)
            os << "\n" << indent << "  ";
    }
    os << "},\n";
    os << indent << "  \"cache_hit\": " << (j.cacheHit ? "true" : "false")
       << ",\n";
    os << indent << "  \"source\": \"" << campaign::jobSourceName(j.source)
       << "\",\n";
    os << indent << "  \"ok\": " << (j.ok() ? "true" : "false") << ",\n";
    os << indent << "  \"error\": \"" << jsonEscape(j.error) << "\",\n";
    os << indent << "  \"wall_ms\": ";
    num(os, j.wallMs);
    os << ",\n";
    os << indent << "  \"trace_path\": \"" << jsonEscape(j.tracePath)
       << "\",\n";
    os << indent << "  \"completed\": "
       << (s.completed ? "true" : "false") << ",\n";
    os << indent << "  \"makespan\": " << s.makespan << ",\n";
    os << indent << "  \"time_ms\": ";
    num(os, s.timeMs);
    os << ",\n";
    os << indent << "  \"energy_j\": ";
    num(os, s.energyJ);
    os << ",\n";
    os << indent << "  \"edp\": ";
    num(os, s.edp);
    os << ",\n";
    os << indent << "  \"avg_watts\": ";
    num(os, s.avgWatts);
    os << ",\n";
    os << indent << "  \"num_tasks\": " << s.numTasks << ",\n";
    os << indent << "  \"avg_task_us\": ";
    num(os, s.avgTaskUs);
    os << ",\n";
    os << indent << "  \"tasks_executed\": " << s.machine.tasksExecuted
       << ",\n";
    os << indent << "  \"dmu_accesses\": " << s.machine.dmuAccesses
       << ",\n";
    os << indent << "  \"dmu_blocked_ops\": " << s.machine.dmuBlockedOps
       << ",\n";
    os << indent << "  \"steals\": " << s.machine.steals << ",\n";
    os << indent << "  \"master_creation_fraction\": ";
    num(os, s.machine.masterCreationFraction);
    os << ",\n";
    // The full (or selected) metric tree, flat dotted keys. This is
    // the machine-readable payload; the fixed fields above are the
    // historical view.
    os << indent << "  \"metrics\": {";
    {
        const sim::MetricSet selected =
            s.metrics().select(metrics_pattern);
        bool first = true;
        for (const auto &[k, v] : selected.entries()) {
            os << (first ? "\n" : ",\n") << indent << "    \""
               << jsonEscape(k) << "\": ";
            num(os, v);
            first = false;
        }
        if (!first)
            os << "\n" << indent << "  ";
    }
    os << "}\n" << indent << "}";
}

void
writeCampaign(std::ostream &os, const campaign::CampaignResult &c,
              const char *indent)
{
    os << indent << "{\n";
    os << indent << "  \"name\": \"" << jsonEscape(c.name) << "\",\n";
    os << indent << "  \"threads\": " << c.threads << ",\n";
    os << indent << "  \"wall_ms\": ";
    num(os, c.wallMs);
    os << ",\n";
    os << indent << "  \"sim_ms_total\": ";
    num(os, c.simMsTotal);
    os << ",\n";
    os << indent << "  \"cache_hits\": " << c.cacheHits << ",\n";
    os << indent << "  \"simulated\": " << c.simulated << ",\n";
    os << indent << "  \"from_memory\": " << c.fromMemory << ",\n";
    os << indent << "  \"from_disk\": " << c.fromDisk << ",\n";
    os << indent << "  \"from_inflight\": " << c.fromInflight << ",\n";
    os << indent << "  \"from_forked\": " << c.fromForked << ",\n";
    os << indent << "  \"warmups_shared\": " << c.warmupsShared
       << ",\n";
    os << indent << "  \"graph_builds\": " << c.graphBuilds << ",\n";
    os << indent << "  \"graph_shares\": " << c.graphShares << ",\n";
    os << indent << "  \"failures\": " << c.failures() << ",\n";
    os << indent << "  \"metrics_pattern\": \""
       << jsonEscape(c.metricsPattern) << "\",\n";
    os << indent << "  \"jobs\": [\n";
    for (std::size_t i = 0; i < c.jobs.size(); ++i) {
        writeJob(os, c.jobs[i], c.metricsPattern,
                 (std::string(indent) + "    ").c_str());
        os << (i + 1 < c.jobs.size() ? ",\n" : "\n");
    }
    os << indent << "  ]\n";
    os << indent << "}";
}

} // namespace

void
jsonEscape(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    // Bytes that need no escape are copied in runs, so a string with
    // nothing to escape costs one append.
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto ch = static_cast<unsigned char>(s[i]);
        if (ch >= 0x20 && ch != '"' && ch != '\\')
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            out += "\\u00";
            out += kHex[ch >> 4];
            out += kHex[ch & 0xf];
        }
    }
    out.append(s.data() + run, s.size() - run);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    jsonEscape(out, s);
    return out;
}

void
writeJson(std::ostream &os,
          const std::vector<campaign::CampaignResult> &campaigns)
{
    os << "{\n  \"campaigns\": [\n";
    for (std::size_t i = 0; i < campaigns.size(); ++i) {
        writeCampaign(os, campaigns[i], "    ");
        os << (i + 1 < campaigns.size() ? ",\n" : "\n");
    }
    os << "  ]\n}\n";
}

void
writeJson(std::ostream &os, const campaign::CampaignResult &c)
{
    writeJson(os, std::vector<campaign::CampaignResult>{c});
}

} // namespace tdm::driver::report
