#include "driver/report/csv_writer.hh"

#include <set>
#include <sstream>

#include "driver/report/json_writer.hh"

namespace tdm::driver::report {

std::string
csvField(const std::string &s)
{
    // RFC 4180: quote fields containing separators, quotes, or either
    // line-break character (a bare \r corrupts the row structure for
    // CRLF-aware readers just like \n does).
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"')
            out += '"';
        out += ch;
    }
    out += '"';
    return out;
}

namespace {

/**
 * Union of the metric keys every job would export under its
 * campaign's selection pattern: the CSV metric columns. One shared
 * header means a job lacking a key (different runtime model) gets an
 * empty cell instead of a ragged row.
 */
std::vector<std::string>
metricColumns(const std::vector<campaign::CampaignResult> &campaigns)
{
    std::set<std::string> keys;
    for (const campaign::CampaignResult &c : campaigns)
        for (const campaign::JobResult &j : c.jobs) {
            const sim::MetricSet sel =
                j.summary.metrics().select(c.metricsPattern);
            for (const auto &[k, v] : sel.entries())
                keys.insert(k);
        }
    return {keys.begin(), keys.end()};
}

void
writeRows(std::ostream &os, const campaign::CampaignResult &c,
          const std::vector<std::string> &metric_cols)
{
    for (const campaign::JobResult &j : c.jobs) {
        const RunSummary &s = j.summary;
        // Fill cells from this campaign's own selection, not the full
        // tree: when campaigns with different patterns share the
        // union header, a row must stay empty in columns its pattern
        // excluded.
        const sim::MetricSet sel =
            s.metrics().select(c.metricsPattern);
        const auto num = [](double v) {
            std::string text;
            appendDouble(text, v);
            return text;
        };
        std::ostringstream row;
        row << csvField(c.name) << ',' << csvField(j.label) << ','
            << j.digest << ',' << (j.cacheHit ? 1 : 0) << ','
            << campaign::jobSourceName(j.source) << ','
            << (j.ok() ? 1 : 0) << ',' << csvField(j.error) << ','
            << num(j.wallMs) << ',' << csvField(j.tracePath) << ','
            << (s.completed ? 1 : 0) << ',' << s.makespan << ','
            << num(s.timeMs) << ',' << num(s.energyJ) << ','
            << num(s.edp) << ',' << num(s.avgWatts) << ','
            << s.numTasks << ',' << num(s.avgTaskUs) << ','
            << s.machine.tasksExecuted << ','
            << s.machine.dmuAccesses << ',' << s.machine.dmuBlockedOps
            << ',' << s.machine.steals << ','
            << num(s.machine.masterCreationFraction);
        for (const std::string &k : metric_cols) {
            row << ',';
            if (sel.contains(k))
                row << num(sel.get(k));
        }
        os << row.str() << '\n';
    }
}

} // namespace

void
writeCsv(std::ostream &os,
         const std::vector<campaign::CampaignResult> &campaigns)
{
    const std::vector<std::string> metric_cols =
        metricColumns(campaigns);
    os << "campaign,label,digest,cache_hit,source,ok,error,wall_ms,"
          "trace_path,"
          "completed,"
          "makespan,time_ms,energy_j,edp,avg_watts,num_tasks,"
          "avg_task_us,tasks_executed,dmu_accesses,dmu_blocked_ops,"
          "steals,master_creation_fraction";
    for (const std::string &k : metric_cols)
        os << ',' << csvField(k);
    os << '\n';
    for (const campaign::CampaignResult &c : campaigns)
        writeRows(os, c, metric_cols);
}

void
writeCsv(std::ostream &os, const campaign::CampaignResult &c)
{
    writeCsv(os, std::vector<campaign::CampaignResult>{c});
}

} // namespace tdm::driver::report
