/**
 * @file
 * The two campaign workloads.
 *
 * paper_figs: fig12 then fig13 on one cold engine with no store, then
 * the JSON and CSV exports — the campaigns users run to reproduce the
 * paper. 162 points: 108 simulated, 54 in-memory hits, no forks.
 *
 * design_sweep: a *.campaign grid written from the seed and loaded
 * through the spec-file loader — {cholesky, qr, streamcluster} x
 * cores {8,16,32,64} (fitted meshes) x {sw, tdm} x mem.l1_bytes x
 * power.active_w. 96 points: 24 cold legs and 72 forks from warm-start
 * snapshots.
 *
 * Each repetition builds a fresh engine, times its set-up (campaign
 * build, fingerprints, task-graph builds into the engine's graph
 * cache) and then its timed phase (engine runs plus exports), and
 * checks every output. Traced repetitions alternate with untraced
 * ones and record spans around the same public calls.
 */

#include <algorithm>
#include <atomic>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common.hh"
#include "driver/campaign/fingerprint.hh"
#include "driver/fork_runner.hh"
#include "driver/graph_cache.hh"
#include "driver/report/csv_writer.hh"
#include "driver/report/json_writer.hh"
#include "driver/spec/campaign_file.hh"
#include "driver/spec/spec.hh"

namespace perfbench {

namespace drv = tdm::driver;

namespace {

/** How one campaign workload builds its campaigns and what source
 *  split each repetition must show. */
struct CampaignPlan
{
    std::function<std::vector<cmp::Campaign>()> build;
    double simulated = 0, forked = 0, memory = 0;
    bool paper = false; ///< fig13 is among the campaigns
};

/** Set-ups per repetition besides the one the repetition runs on:
 *  set-up takes tens of milliseconds, so its median needs more samples
 *  than there are repetitions. */
constexpr int kExtraSetups = 3;

/**
 * Set-up: everything before the timed phase — build the campaigns,
 * fingerprint every point, build every task graph into @p engine's
 * graph cache. Sampled as setup_s when untraced.
 */
std::vector<cmp::Campaign>
setUp(const CampaignPlan &plan, cmp::CampaignEngine &engine, Recorder &rec,
      Recorder *tr, std::uint64_t parent, int rep)
{
    const Clock::time_point s0 = Clock::now();
    std::vector<cmp::Campaign> campaigns;
    {
        ScopedSpan setup(tr, "setup", parent, rep);
        {
            ScopedSpan s(tr, "campaign.build", setup.id(), rep);
            campaigns = plan.build();
        }
        for (const cmp::Campaign &c : campaigns)
            for (const drv::SweepPoint &p : c.points) {
                ScopedSpan s(tr, "fingerprint", setup.id(), rep);
                (void)cmp::fingerprint(p.exp);
            }
        for (const cmp::Campaign &c : campaigns)
            for (const drv::SweepPoint &p : c.points) {
                ScopedSpan s(tr, "graph.obtain", setup.id(), rep);
                (void)engine.graphCache().obtain(p.exp);
            }
    }
    if (!tr)
        rec.sample("setup_s", secondsBetween(s0, Clock::now()));
    return campaigns;
}

/** One repetition; @p tr is the recorder for spans, null when this
 *  repetition is untraced. */
void
runRep(const CampaignPlan &plan, int rep, Recorder &rec, Recorder *tr,
       std::string &firstDigest)
{
    cmp::EngineOptions eo;
    eo.threads = kWorkers;
    ScopedSpan repSpan(tr, "rep", 0, rep);
    for (int i = 0; i < (tr ? 0 : kExtraSetups); ++i) {
        cmp::CampaignEngine scratch(eo);
        setUp(plan, scratch, rec, tr, repSpan.id(), rep);
    }
    cmp::CampaignEngine engine(eo);
    const std::vector<cmp::Campaign> campaigns =
        setUp(plan, engine, rec, tr, repSpan.id(), rep);
    rec.sample("graph.builds",
               static_cast<double>(engine.graphCache().builds()));

    // Timed phase: run every campaign, then export.
    std::vector<cmp::CampaignResult> results;
    std::size_t jsonBytes = 0;
    const Clock::time_point t0 = Clock::now();
    {
        ScopedSpan timed(tr, "timed", repSpan.id(), rep);
        for (const cmp::Campaign &c : campaigns) {
            ScopedSpan run(tr, "engine.run", timed.id(), rep);
            const Clock::time_point submitted = Clock::now();
            results.push_back(engine.run(
                c, [&](const cmp::JobResult &job, std::size_t,
                       std::size_t) {
                    const Clock::time_point now = Clock::now();
                    if (!tr)
                        rec.sample("submit_ms",
                                   1e3 * secondsBetween(submitted, now));
                    else if (job.source == cmp::JobSource::Simulated ||
                             job.source == cmp::JobSource::Forked)
                        recordPointSpan(*tr, job, run.id(), rep, now);
                }));
        }
        {
            ScopedSpan s(tr, "report.json", timed.id(), rep);
            std::ostringstream js;
            drv::report::writeJson(js, results);
            jsonBytes = js.str().size();
        }
        {
            ScopedSpan s(tr, "report.csv", timed.id(), rep);
            std::ostringstream cs;
            drv::report::writeCsv(cs, results);
        }
    }
    const Clock::time_point t1 = Clock::now();

    if (tr) {
        rec.sample("traced_campaign_s", secondsBetween(t0, t1));
    } else {
        rec.sample("campaign_s", secondsBetween(t0, t1));
    }
    rec.sample("report.json_bytes", static_cast<double>(jsonBytes));

    // Output checks: every point completed, the source split matches
    // the workload's structure, and the output digest is the same in
    // every repetition.
    RepCounters counters;
    OutputDigest digest;
    for (const cmp::CampaignResult &r : results) {
        counters.addRun(r);
        for (const cmp::JobResult &job : r.jobs) {
            rec.check(job.ok(), r.name + " " + job.label + " failed: " +
                                    job.error);
            counters.addJob(job);
            digest.add(r.name + ":" + job.label,
                       metricDigest(job.summary));
        }
    }
    counters.sample(rec);
    rec.check(counters.simulated == plan.simulated &&
                  counters.forked == plan.forked &&
                  counters.memory == plan.memory &&
                  counters.disk + counters.inflight == 0,
              "unexpected source split: " +
                  std::to_string(counters.simulated) + " simulated, " +
                  std::to_string(counters.forked) + " forked, " +
                  std::to_string(counters.memory) + " memory");
    const std::string hex = digest.hex();
    if (firstDigest.empty())
        firstDigest = hex;
    rec.check(hex == firstDigest,
              "output digest changed between repetitions");
    if (plan.paper)
        rec.sample("paper_err_pct", paperErrPct(results.back()));
}

/**
 * Fork-layer pass of a traced design_sweep run: the benchmark groups
 * the points exactly as the engine does (warm fingerprint, members by
 * ROI fingerprint) and drives ForkGroupRunner itself. Each leader also
 * runs through plain driver::run (the capture baseline), and every
 * forked member is re-run cold and must give bit-identical metric
 * bytes.
 */
void
forkPass(const std::vector<drv::SweepPoint> &points, Recorder &rec)
{
    std::vector<std::string> roiKeys(points.size());
    std::vector<std::vector<std::size_t>> groups;
    std::unordered_map<std::string, std::size_t> groupOf;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const tdm::sim::Config spec = cmp::canonicalConfig(points[i].exp);
        roiKeys[i] = drv::spec::roiFingerprint(spec);
        auto [it, fresh] = groupOf.emplace(
            drv::spec::warmFingerprint(spec), groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }
    for (auto &g : groups)
        std::stable_sort(g.begin(), g.end(),
                         [&](std::size_t a, std::size_t b) {
                             return roiKeys[a] < roiKeys[b];
                         });

    const std::uint64_t pass = rec.reserveId();
    const Clock::time_point p0 = Clock::now();
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t g; (g = next.fetch_add(1)) < groups.size();) {
            try {
                const auto &group = groups[g];
                const auto graph = drv::buildGraph(points[group[0]].exp);
                drv::ForkGroupRunner runner(graph, true);
                std::string prevRoi;
                for (std::size_t k = 0; k < group.size(); ++k) {
                    const drv::SweepPoint &p = points[group[k]];
                    const std::string &roi = roiKeys[group[k]];
                    bool forked = false;
                    const Clock::time_point a = Clock::now();
                    const drv::RunSummary s =
                        runner.run(p.exp, roi, nullptr, &forked);
                    const Clock::time_point b = Clock::now();
                    SpanAttrs attrs;
                    attrs.kind = k == 0    ? "leader"
                                 : !forked ? "declined"
                                 : roi == prevRoi ? "final"
                                                  : "warm";
                    rec.span("fork.run", pass, 0, a, b, attrs);
                    prevRoi = roi;
                    if (k != 0 && !forked)
                        continue;
                    const drv::RunSummary cold = drv::run(p.exp, graph);
                    SpanAttrs coldAttrs;
                    coldAttrs.kind =
                        k == 0 ? "capture_baseline" : "cold_check";
                    rec.span("driver.run", pass, 0, b, Clock::now(),
                             coldAttrs);
                    rec.check(s.completed &&
                                  metricDigest(s) == metricDigest(cold),
                              p.label + ": " + attrs.kind +
                                  " leg differs from a cold run");
                }
            } catch (const std::exception &e) {
                rec.check(false, std::string("fork pass: ") + e.what());
            }
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kWorkers; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    rec.spanAs(pass, "fork.pass", 0, 0, p0, Clock::now());
}

void
runCampaignWorkload(const Options &opt, Recorder &rec,
                    const CampaignPlan &plan)
{
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt.seconds));
    // A traced run alternates untraced and traced repetitions, so
    // trace.overhead_frac compares like with like.
    const int minReps = opt.trace ? 4 : 2;
    std::string firstDigest;
    for (int rep = 0; anotherRep(rep, minReps, deadline); ++rep) {
        const bool traced = opt.trace && rep % 2 == 1;
        runRep(plan, rep, rec, traced ? &rec : nullptr, firstDigest);
        if (rep == 0)
            rec.sample("max_rss_mb", maxRssMb());
    }
    rec.note("digest", firstDigest);
    if (!plan.paper && !opt.trace)
        rec.sample("paper_err_pct", paperErrPctFresh(rec));
}

} // namespace

void
runPaperFigs(const Options &opt, Recorder &rec)
{
    // The paper's campaigns are fixed: every seed gives these inputs,
    // so the digest and paper_err_pct are exact for every seed.
    CampaignPlan plan;
    plan.build = [] {
        return std::vector<cmp::Campaign>{cmp::makeCampaign("fig12"),
                                          cmp::makeCampaign("fig13")};
    };
    plan.simulated = 108;
    plan.memory = 54;
    plan.paper = true;
    runCampaignWorkload(opt, rec, plan);
}

void
runDesignSweep(const Options &opt, Recorder &rec)
{
    // The seed sets every point's task-duration noise seed.
    const std::string path = opt.workdir + "/design_sweep.campaign";
    {
        std::ofstream f(path);
        f << "[meta]\n"
             "name = design_sweep\n"
             "label = {workload}/c{machine.cores}/{runtime}"
             "/l1_{mem.l1_bytes}/w{power.active_w}\n"
             "set workload.seed = "
          << opt.seed
          << "\n"
             "axis workload = cholesky, qr, streamcluster\n"
             "zip machine.cores, mesh.width, mesh.height = "
             "8, 3, 3 | 16, 5, 5 | 32, 6, 6 | 64, 9, 9\n"
             "axis runtime = sw, tdm\n"
             "axis mem.l1_bytes = 16384, 65536\n"
             "axis power.active_w = 0.6, 1.2\n";
        if (!f)
            throw std::runtime_error("cannot write " + path);
    }
    CampaignPlan plan;
    plan.build = [path] {
        return std::vector<cmp::Campaign>{
            drv::spec::loadCampaignFile(path).toCampaign()};
    };
    plan.simulated = 24;
    plan.forked = 72;
    runCampaignWorkload(opt, rec, plan);
    if (opt.trace)
        forkPass(plan.build().front().points, rec);
}

} // namespace perfbench
