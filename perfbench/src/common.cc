#include "common.hh"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "driver/campaign/fingerprint.hh"
#include "driver/report/aggregate.hh"
#include "runtime/scheduler.hh"
#include "workloads/registry.hh"

namespace perfbench {

namespace drv = tdm::driver;

namespace {

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

bool
anotherRep(int rep, int minReps, Clock::time_point deadline)
{
    return rep < minReps || Clock::now() < deadline;
}

std::uint64_t
metricDigest(const drv::RunSummary &summary)
{
    std::string buf;
    for (const auto &[key, value] : summary.metrics().entries()) {
        char bits[sizeof value];
        std::memcpy(bits, &value, sizeof bits);
        buf += key;
        buf.append(bits, sizeof bits);
    }
    return cmp::fnv1a64(buf);
}

void
OutputDigest::add(const std::string &label, std::uint64_t metrics)
{
    byLabel_[label] = metrics;
}

std::string
OutputDigest::hex() const
{
    std::string all;
    for (const auto &[label, h] : byLabel_)
        all += label + '\n' + hex64(h) + '\n';
    return hex64(cmp::fnv1a64(all));
}

double
paperErrPct(const cmp::CampaignResult &fig13)
{
    // Section VI-B averages: speed-up of Carbon, Task Superscalar and
    // TDM (best scheduler per benchmark) over SW+FIFO, then their EDP
    // normalised to SW+FIFO.
    static const double kPaper[6] = {1.019, 1.081, 1.123,
                                     0.949, 0.859, 0.796};
    std::vector<double> sp[3], edp[3];
    for (const auto &w : tdm::wl::allWorkloads()) {
        const auto &base =
            fig13.at(cmp::pointLabel(w.name, "sw", "fifo")).summary;
        const char *baselines[2] = {"carbon", "tss"};
        for (int b = 0; b < 2; ++b) {
            const auto &r =
                fig13.at(cmp::pointLabel(w.name, baselines[b], "fifo"))
                    .summary;
            sp[b].push_back(drv::speedup(base, r));
            edp[b].push_back(drv::normalizedEdp(base, r));
        }
        double bestSp = 0.0, bestEdp = 0.0;
        for (const auto &s : tdm::rt::allSchedulerNames()) {
            const auto &r =
                fig13.at(cmp::pointLabel(w.name, "tdm", s)).summary;
            const double v = drv::speedup(base, r);
            if (v > bestSp) {
                bestSp = v;
                bestEdp = drv::normalizedEdp(base, r);
            }
        }
        sp[2].push_back(bestSp);
        edp[2].push_back(bestEdp);
    }
    double err = 0.0;
    for (int i = 0; i < 3; ++i) {
        err += std::fabs(drv::report::geomean(sp[i]) / kPaper[i] - 1.0);
        err += std::fabs(drv::report::geomean(edp[i]) / kPaper[3 + i] -
                         1.0);
    }
    return err / 6.0 * 100.0;
}

double
paperErrPctFresh(Recorder &rec)
{
    cmp::EngineOptions eo;
    eo.threads = kWorkers;
    cmp::CampaignEngine engine(eo);
    const cmp::CampaignResult r = engine.run(cmp::makeCampaign("fig13"));
    rec.check(r.allOk(), "fig13 accuracy run: a point failed");
    return paperErrPct(r);
}

double
maxRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
recordPointSpan(Recorder &tr, const cmp::JobResult &job,
                std::uint64_t parent, int rep, Clock::time_point now)
{
    SpanAttrs a;
    a.runtime = job.spec.getString("runtime");
    a.cores = static_cast<unsigned>(job.spec.getUint("machine.cores"));
    a.source = cmp::jobSourceName(job.source);
    a.tasks = job.summary.numTasks;
    const auto wall = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(job.wallMs));
    tr.span("sim.point", parent, rep, now - wall, now, a);
}

void
RepCounters::addJob(const cmp::JobResult &job)
{
    switch (job.source) {
    case cmp::JobSource::Simulated: ++simulated; break;
    case cmp::JobSource::Forked: ++forked; break;
    case cmp::JobSource::Memory: ++memory; return;
    case cmp::JobSource::Disk: ++disk; return;
    case cmp::JobSource::Inflight: ++inflight; return;
    }
    jobWallMs += job.wallMs;
    const auto &m = job.summary.metrics();
    tasks += m.get("machine.tasks_executed");
    dmuOps += m.get("dmu.ops");
    meshMessages += m.get("mesh.messages");
    flitHops += m.get("mesh.flit_hops");
    l1Lines += m.get("mem.l1_line_accesses");
}

void
RepCounters::addRun(const cmp::CampaignResult &result)
{
    engineWallMs += result.wallMs;
}

void
RepCounters::sample(Recorder &rec) const
{
    rec.sample("engine.simulated", simulated);
    rec.sample("engine.forked", forked);
    rec.sample("engine.memory_hits", memory);
    rec.sample("engine.disk_hits", disk);
    rec.sample("engine.inflight_attaches", inflight);
    rec.sample("engine.busy_frac",
               engineWallMs > 0 ? jobWallMs / (kWorkers * engineWallMs)
                                : 0.0);
    rec.sample("work.tasks", tasks);
    rec.sample("work.dmu_ops", dmuOps);
    rec.sample("work.mesh_messages", meshMessages);
    rec.sample("work.mesh_flit_hops", flitHops);
    rec.sample("work.mem_l1_line_accesses", l1Lines);
}

} // namespace perfbench
