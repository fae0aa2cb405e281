/**
 * @file
 * Campaign-engine tests: fingerprint canonicalization, multi-threaded
 * determinism against the sequential sweep path, cache-hit behavior on
 * duplicated points, error propagation, the built-in campaign registry
 * and the JSON/CSV writers with their shared number and string
 * formatting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <set>
#include <sstream>

#include "driver/campaign/campaign.hh"
#include "driver/campaign/engine.hh"
#include "driver/campaign/fingerprint.hh"
#include "driver/graph_cache.hh"
#include "driver/report/csv_writer.hh"
#include "driver/report/json_writer.hh"
#include "driver/sweep.hh"

using namespace tdm;
using namespace tdm::driver;

namespace {

Experiment
smallExperiment(core::RuntimeType rt_, const std::string &sched = "fifo")
{
    Experiment e;
    e.workload = "cholesky";
    e.params.granularity = 262144; // 8x8 tiles, 120 tasks
    e.runtime = rt_;
    e.config.scheduler = sched;
    e.config.numCores = 8;
    return e;
}

/** A small mixed campaign touching every runtime type. */
std::vector<SweepPoint>
mixedPoints()
{
    return {
        {"sw/fifo", smallExperiment(core::RuntimeType::Software)},
        {"sw/lifo", smallExperiment(core::RuntimeType::Software, "lifo")},
        {"tdm/fifo", smallExperiment(core::RuntimeType::Tdm)},
        {"tdm/age", smallExperiment(core::RuntimeType::Tdm, "age")},
        {"tdm/locality",
         smallExperiment(core::RuntimeType::Tdm, "locality")},
        {"carbon", smallExperiment(core::RuntimeType::Carbon)},
        {"tss", smallExperiment(core::RuntimeType::TaskSuperscalar)},
        {"sw/age", smallExperiment(core::RuntimeType::Software, "age")},
    };
}

void
expectSummariesEqual(const RunSummary &a, const RunSummary &b)
{
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.timeMs, b.timeMs);
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.edp, b.edp);
    EXPECT_EQ(a.avgWatts, b.avgWatts);
    EXPECT_EQ(a.numTasks, b.numTasks);
    EXPECT_EQ(a.machine.tasksExecuted, b.machine.tasksExecuted);
    EXPECT_EQ(a.machine.dmuAccesses, b.machine.dmuAccesses);
    EXPECT_EQ(a.machine.steals, b.machine.steals);
}

} // namespace

TEST(Fingerprint, StableAndCanonical)
{
    Experiment a = smallExperiment(core::RuntimeType::Tdm);
    Experiment b = smallExperiment(core::RuntimeType::Tdm);
    EXPECT_EQ(campaign::fingerprint(a), campaign::fingerprint(b));

    // Short workload names canonicalize to the full name.
    b.workload = "cho";
    EXPECT_EQ(campaign::fingerprint(a), campaign::fingerprint(b));

    // run() implies the TDM-optimal granularity when unset; the
    // fingerprint applies the same normalization.
    Experiment c = smallExperiment(core::RuntimeType::Tdm);
    c.params.granularity = 0.0;
    Experiment d = c;
    d.params.tdmOptimal = true;
    EXPECT_EQ(campaign::fingerprint(c), campaign::fingerprint(d));
}

TEST(Fingerprint, DistinguishesExperiments)
{
    const Experiment base = smallExperiment(core::RuntimeType::Tdm);
    const std::string fp = campaign::fingerprint(base);

    Experiment e = base;
    e.config.scheduler = "age";
    EXPECT_NE(campaign::fingerprint(e), fp);

    e = base;
    e.runtime = core::RuntimeType::Software;
    EXPECT_NE(campaign::fingerprint(e), fp);

    e = base;
    e.params.granularity = 131072;
    EXPECT_NE(campaign::fingerprint(e), fp);

    e = base;
    e.params.seed = 7;
    EXPECT_NE(campaign::fingerprint(e), fp);

    e = base;
    e.config.numCores = 16;
    EXPECT_NE(campaign::fingerprint(e), fp);

    e = base;
    e.config.dmu.accessCycles = 4;
    EXPECT_NE(campaign::fingerprint(e), fp);

    // Software pool costs feed the simulation too (machine.cc uses
    // them in the scheduling phase); they must be fingerprinted.
    e = base;
    e.config.swCosts.poolPopCycles += 1;
    EXPECT_NE(campaign::fingerprint(e), fp);
    e = base;
    e.config.swCosts.schedPollCycles += 1;
    EXPECT_NE(campaign::fingerprint(e), fp);
}

TEST(Fingerprint, DigestIsFixedWidth)
{
    const Experiment e = smallExperiment(core::RuntimeType::Tdm);
    const std::string d = campaign::fingerprintDigest(e);
    EXPECT_EQ(d.size(), 16u);
    EXPECT_EQ(d, campaign::digestOfKey(campaign::fingerprint(e)));
}

TEST(Fingerprint, DigestMatchesPrintfHex)
{
    const auto printfHex = [](std::uint64_t h) {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
        return std::string(buf);
    };
    std::vector<std::uint64_t> values = {
        0, 1, 0xf, 0x10, 0xffffffffull, 0x8000000000000000ull,
        0x0123456789abcdefull, UINT64_MAX};
    std::mt19937_64 rng(0x5eed);
    for (int i = 0; i < 1000; ++i)
        values.push_back(rng() >> (rng() % 64));
    for (const std::uint64_t v : values)
        EXPECT_EQ(campaign::hex16(v), printfHex(v));

    for (int i = 0; i < 200; ++i) {
        const std::string key = "k=" + std::to_string(rng()) + ";";
        EXPECT_EQ(campaign::digestOfKey(key),
                  printfHex(campaign::fnv1a64(key)));
    }
    EXPECT_EQ(campaign::digestOfKey(""), "cbf29ce484222325");
}

TEST(Engine, FourThreadRunMatchesSequentialSweep)
{
    const auto points = mixedPoints();

    auto seq = runSweep(points);

    campaign::EngineOptions opts;
    opts.threads = 4;
    campaign::CampaignEngine engine(opts);
    auto par = engine.run("mixed", points);

    ASSERT_EQ(par.jobs.size(), seq.size());
    EXPECT_EQ(par.threads, 4u);
    for (std::size_t i = 0; i < seq.size(); ++i) {
        EXPECT_EQ(par.jobs[i].label, seq[i].label);
        EXPECT_TRUE(par.jobs[i].ok()) << par.jobs[i].label;
        expectSummariesEqual(par.jobs[i].summary, seq[i].summary);
    }
}

TEST(Engine, DeduplicatesIdenticalPointsWithinRun)
{
    std::vector<SweepPoint> points = {
        {"first", smallExperiment(core::RuntimeType::Tdm)},
        {"twin", smallExperiment(core::RuntimeType::Tdm)},
        {"other", smallExperiment(core::RuntimeType::Software)},
    };

    campaign::EngineOptions opts;
    opts.threads = 4;
    campaign::CampaignEngine engine(opts);
    auto rep = engine.run("dup", points);

    EXPECT_EQ(rep.simulated, 2u);
    EXPECT_EQ(rep.cacheHits, 1u);
    EXPECT_FALSE(rep.jobs[0].cacheHit);
    EXPECT_TRUE(rep.jobs[1].cacheHit);
    expectSummariesEqual(rep.jobs[0].summary, rep.jobs[1].summary);
}

TEST(Engine, ReportsCacheHitsOnRerun)
{
    const auto points = mixedPoints();

    campaign::EngineOptions opts;
    opts.threads = 4;
    campaign::CampaignEngine engine(opts);
    auto first = engine.run("mixed", points);
    EXPECT_EQ(first.cacheHits, 0u);
    EXPECT_EQ(first.simulated, points.size());

    auto second = engine.run("mixed", points);
    EXPECT_EQ(second.simulated, 0u);
    EXPECT_EQ(second.cacheHits, points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_TRUE(second.jobs[i].cacheHit);
        expectSummariesEqual(second.jobs[i].summary,
                             first.jobs[i].summary);
    }
    EXPECT_GE(engine.cache().hits(), points.size());
}

TEST(Engine, NoCacheOptionDisablesDedup)
{
    std::vector<SweepPoint> points = {
        {"a", smallExperiment(core::RuntimeType::Software)},
        {"b", smallExperiment(core::RuntimeType::Software)},
    };
    campaign::EngineOptions opts;
    opts.threads = 2;
    opts.useCache = false;
    campaign::CampaignEngine engine(opts);
    auto rep = engine.run("nocache", points);
    // Cache dedup is off, so neither point is *served* from a cache —
    // but warm-start batching still groups the identical specs, so
    // the second point forks the first's snapshot instead of starting
    // cold, and its summary must come out identical.
    EXPECT_EQ(rep.simulated, 1u);
    EXPECT_EQ(rep.fromForked, 1u);
    EXPECT_EQ(rep.warmupsShared, 1u);
    EXPECT_EQ(rep.cacheHits, 0u);
    expectSummariesEqual(rep.jobs[0].summary, rep.jobs[1].summary);

    // With batching off too, both points simulate cold end-to-end —
    // the historical contract.
    opts.warmFork = false;
    campaign::CampaignEngine coldEngine(opts);
    auto coldRep = coldEngine.run("nocache", points);
    EXPECT_EQ(coldRep.simulated, 2u);
    EXPECT_EQ(coldRep.fromForked, 0u);
    EXPECT_EQ(coldRep.cacheHits, 0u);
    expectSummariesEqual(coldRep.jobs[0].summary, rep.jobs[1].summary);
}

TEST(Engine, PropagatesIncompleteRuns)
{
    Experiment doomed = smallExperiment(core::RuntimeType::Tdm);
    doomed.config.maxTicks = 1; // watchdog fires immediately

    std::vector<SweepPoint> points = {
        {"doomed", doomed},
        {"fine", smallExperiment(core::RuntimeType::Software)},
    };

    campaign::EngineOptions opts;
    opts.threads = 4;
    campaign::CampaignEngine engine(opts);
    auto rep = engine.run("errors", points);

    EXPECT_FALSE(rep.allOk());
    EXPECT_EQ(rep.failures(), 1u);
    EXPECT_FALSE(rep.jobs[0].ok());
    EXPECT_FALSE(rep.jobs[0].summary.completed);
    EXPECT_FALSE(rep.jobs[0].error.empty());
    EXPECT_TRUE(rep.jobs[1].ok());

    // The sequential wrapper keeps returning results for failed points.
    auto seq = runSweep(points);
    ASSERT_EQ(seq.size(), 2u);
    EXPECT_FALSE(seq[0].summary.completed);
    EXPECT_TRUE(seq[1].summary.completed);

    // A failed run is cached like any other deterministic outcome.
    auto rerun = engine.run("errors", points);
    EXPECT_EQ(rerun.simulated, 0u);
    EXPECT_EQ(rerun.failures(), 1u);
    EXPECT_FALSE(rerun.jobs[0].error.empty());
}

TEST(Engine, SeedBaseGivesEachPointItsOwnSeed)
{
    std::vector<SweepPoint> points = {
        {"a", smallExperiment(core::RuntimeType::Software)},
        {"b", smallExperiment(core::RuntimeType::Software)},
    };
    campaign::EngineOptions opts;
    opts.threads = 2;
    opts.seedBase = 100;
    campaign::CampaignEngine engine(opts);
    auto rep = engine.run("seeded", points);

    // Identical points reseeded by index are no longer duplicates.
    EXPECT_EQ(rep.simulated, 2u);
    EXPECT_NE(rep.jobs[0].digest, rep.jobs[1].digest);
    EXPECT_NE(rep.jobs[0].summary.makespan, rep.jobs[1].summary.makespan);
}

TEST(GraphCache, KeySeparatesGraphsAndSharesEqualOnes)
{
    // With an explicit granularity the graph is runtime-independent...
    Experiment sw = smallExperiment(core::RuntimeType::Software);
    Experiment tdm = smallExperiment(core::RuntimeType::Tdm);
    EXPECT_EQ(graphKey(sw), graphKey(tdm));

    // ...but a default granularity implies the TDM-optimal one for DMU
    // runtimes: two different graphs, two different keys.
    sw.params.granularity = 0.0;
    tdm.params.granularity = 0.0;
    EXPECT_NE(graphKey(sw), graphKey(tdm));
    EXPECT_TRUE(effectiveParams(tdm).tdmOptimal);
    EXPECT_FALSE(effectiveParams(sw).tdmOptimal);

    // Short names canonicalize; seeds separate.
    Experiment cho = smallExperiment(core::RuntimeType::Tdm);
    cho.workload = "cho";
    EXPECT_EQ(graphKey(cho),
              graphKey(smallExperiment(core::RuntimeType::Tdm)));
    cho.params.seed = 7;
    EXPECT_NE(graphKey(cho),
              graphKey(smallExperiment(core::RuntimeType::Tdm)));

    // The cache hands out one shared instance per distinct key.
    GraphCache cache;
    auto a = cache.obtain(sw);
    auto b = cache.obtain(smallExperiment(core::RuntimeType::Software));
    auto c = cache.obtain(tdm);
    EXPECT_EQ(a.get(), cache.obtain(sw).get());
    EXPECT_NE(a.get(), b.get());
    EXPECT_NE(b.get(), c.get());
    EXPECT_EQ(cache.builds(), 3u);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(Engine, SharedGraphRunIsByteIdenticalToPerPointBuilds)
{
    // The tentpole guarantee of graph sharing: a campaign simulated on
    // shared immutable graphs exports exactly what per-point graph
    // builds export — every metric of every job, bit for bit.
    const auto points = mixedPoints();

    campaign::EngineOptions shared_opts;
    shared_opts.threads = 4;
    shared_opts.shareGraphs = true;
    campaign::CampaignEngine shared_engine(shared_opts);
    auto shared = shared_engine.run("mixed", points);

    campaign::EngineOptions rebuild_opts;
    rebuild_opts.threads = 4;
    rebuild_opts.shareGraphs = false;
    campaign::CampaignEngine rebuild_engine(rebuild_opts);
    auto rebuilt = rebuild_engine.run("mixed", points);

    // All eight points use one explicit granularity, so they share a
    // single graph; the rebuild path builds none.
    EXPECT_EQ(shared.graphBuilds, 1u);
    EXPECT_EQ(shared.graphShares, shared.simulated - 1);
    EXPECT_EQ(rebuilt.graphBuilds, 0u);
    EXPECT_EQ(shared_engine.graphCache().size(), 1u);

    ASSERT_EQ(shared.jobs.size(), rebuilt.jobs.size());
    for (std::size_t i = 0; i < shared.jobs.size(); ++i) {
        const campaign::JobResult &a = shared.jobs[i];
        const campaign::JobResult &b = rebuilt.jobs[i];
        ASSERT_TRUE(a.ok()) << a.label;
        EXPECT_EQ(a.summary.makespan, b.summary.makespan) << a.label;
        // The full flattened metric tree — the payload every export
        // writer serializes — must match exactly, key set and values.
        EXPECT_EQ(a.summary.metrics().entries(),
                  b.summary.metrics().entries())
            << a.label;
        EXPECT_EQ(a.spec.serialize(), b.spec.serialize()) << a.label;
    }
}

TEST(Registry, BuiltinCampaigns)
{
    EXPECT_TRUE(campaign::hasCampaign("fig12"));
    EXPECT_TRUE(campaign::hasCampaign("fig13"));
    EXPECT_TRUE(campaign::hasCampaign("ablation_scaling"));
    EXPECT_FALSE(campaign::hasCampaign("nope"));

    auto fig12 = campaign::makeCampaign("fig12");
    EXPECT_EQ(fig12.points.size(), 90u); // 9 workloads x 2 runtimes x 5
    auto fig13 = campaign::makeCampaign("fig13");
    EXPECT_EQ(fig13.points.size(), 72u); // 9 x (3 baselines + 5 TDM)
    auto abl = campaign::makeCampaign("ablation_scaling");
    EXPECT_EQ(abl.points.size(), 24u); // 3 x 4 core counts x 2

    for (const auto &c : {fig12, fig13, abl}) {
        std::set<std::string> labels;
        for (const auto &p : c.points)
            labels.insert(p.label);
        EXPECT_EQ(labels.size(), c.points.size()) << c.name;
    }

    EXPECT_GE(campaign::campaignList().size(), 3u);
}

TEST(Report, JsonAndCsvWriters)
{
    std::vector<SweepPoint> points = {
        {"sw, \"quoted\"", smallExperiment(core::RuntimeType::Software)},
        {"tdm", smallExperiment(core::RuntimeType::Tdm)},
    };
    campaign::CampaignEngine engine;
    auto rep = engine.run("writers", points);

    std::ostringstream json;
    report::writeJson(json, rep);
    const std::string j = json.str();
    EXPECT_NE(j.find("\"name\": \"writers\""), std::string::npos);
    EXPECT_NE(j.find("\"label\": \"sw, \\\"quoted\\\"\""),
              std::string::npos);
    EXPECT_NE(j.find("\"completed\": true"), std::string::npos);
    // Every job carries its full canonical spec.
    EXPECT_NE(j.find("\"spec\": {"), std::string::npos);
    EXPECT_NE(j.find("\"workload\": \"cholesky\""), std::string::npos);
    EXPECT_NE(j.find("\"dmu.tat_entries\": \"2048\""),
              std::string::npos);
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));

    std::ostringstream csv;
    report::writeCsv(csv, rep);
    const std::string c = csv.str();
    // Header + one row per job.
    EXPECT_EQ(std::count(c.begin(), c.end(), '\n'), 3);
    EXPECT_NE(c.find("campaign,label,digest"), std::string::npos);
    EXPECT_NE(c.find("\"sw, \"\"quoted\"\"\""), std::string::npos);
    EXPECT_NE(c.find("writers,tdm,"), std::string::npos);
}

TEST(Report, MetricSelectionFlowsThroughEngineAndWriters)
{
    campaign::Campaign c;
    c.name = "sel";
    c.points = {{"tdm", smallExperiment(core::RuntimeType::Tdm)}};
    c.metrics = "dmu.tat.*";

    campaign::CampaignEngine engine;
    campaign::CampaignResult rep = engine.run(c);
    EXPECT_EQ(rep.metricsPattern, "dmu.tat.*");
    // The full tree rides on the summary; selection happens at export.
    EXPECT_TRUE(
        rep.jobs[0].summary.metrics().contains("mesh.messages"));

    std::ostringstream json;
    report::writeJson(json, rep);
    const std::string j = json.str();
    EXPECT_NE(j.find("\"metrics_pattern\": \"dmu.tat.*\""),
              std::string::npos);
    EXPECT_NE(j.find("\"metrics\": {"), std::string::npos);
    EXPECT_NE(j.find("\"dmu.tat.hits\":"), std::string::npos);
    EXPECT_EQ(j.find("\"mesh.messages\":"), std::string::npos);

    std::ostringstream csv;
    report::writeCsv(csv, rep);
    const std::string cs = csv.str();
    const std::string header = cs.substr(0, cs.find('\n'));
    EXPECT_NE(header.find(",dmu.tat.hits"), std::string::npos);
    EXPECT_EQ(header.find("mesh.messages"), std::string::npos);
}

TEST(Report, CsvFieldQuotesPerRfc4180)
{
    EXPECT_EQ(report::csvField("plain"), "plain");
    EXPECT_EQ(report::csvField("a,b"), "\"a,b\"");
    EXPECT_EQ(report::csvField("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(report::csvField("line\nbreak"), "\"line\nbreak\"");
    // A bare carriage return corrupts rows for CRLF-aware readers just
    // like \n does and must be quoted too (regression: it used to slip
    // through unquoted).
    EXPECT_EQ(report::csvField("crlf\r\nlabel"), "\"crlf\r\nlabel\"");
    EXPECT_EQ(report::csvField("cr\ronly"), "\"cr\ronly\"");
}

namespace {

std::string
printf17g(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
formatted(double v)
{
    std::string out;
    report::appendDouble(out, v);
    return out;
}

} // namespace

TEST(Report, DoubleFormatterMatchesPrintf17g)
{
    const double pinned[] = {
        0.0, -0.0, 1.0, -1.0, 42.0, 1e15, 1e16, 1e17, 123456789012345678.0,
        0.1 + 0.2, 1.0 / 3.0, DBL_MAX, -DBL_MAX, DBL_MIN,
        std::numeric_limits<double>::denorm_min(), DBL_MIN / 3.0,
        -std::numeric_limits<double>::denorm_min(), 9007199254740993.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()};
    for (double v : pinned)
        EXPECT_EQ(formatted(v), printf17g(v)) << printf17g(v);
    for (std::int64_t i = -1000; i <= 1000; ++i)
        EXPECT_EQ(formatted(static_cast<double>(i)),
                  printf17g(static_cast<double>(i)));

    // Seeded random bit patterns cover every exponent, subnormals,
    // and (rarely) NaN payloads.
    std::mt19937_64 rng(0x5eed);
    int mismatches = 0;
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t bits = rng();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        if (formatted(v) != printf17g(v) && ++mismatches <= 5)
            ADD_FAILURE() << "bits " << bits << ": " << formatted(v)
                          << " vs " << printf17g(v);
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(Report, JsonNumberRendersNonFiniteAsNull)
{
    for (double v : {std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
        std::string s;
        report::jsonNumber(s, v);
        std::ostringstream os;
        report::jsonNumber(os, v);
        EXPECT_EQ(s, "null");
        EXPECT_EQ(os.str(), "null");
    }
    std::string s;
    report::jsonNumber(s, 0.1);
    EXPECT_EQ(s, "0.10000000000000001");
}

TEST(Report, JsonEscapeEveryByte)
{
    // '"' and '\\' get a backslash, \n \r \t their short escapes, the
    // other control bytes \u00xx in lower-case hex; everything else,
    // DEL and bytes >= 0x80 included, passes through.
    std::string all, expectedAll;
    for (int b = 0; b < 256; ++b) {
        const char ch = static_cast<char>(b);
        std::string expected;
        if (ch == '"')
            expected = "\\\"";
        else if (ch == '\\')
            expected = "\\\\";
        else if (ch == '\n')
            expected = "\\n";
        else if (ch == '\r')
            expected = "\\r";
        else if (ch == '\t')
            expected = "\\t";
        else if (b < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", b);
            expected = buf;
        } else {
            expected = std::string(1, ch);
        }
        EXPECT_EQ(report::jsonEscape(std::string(1, ch)), expected)
            << "byte " << b;
        all += ch;
        all += "run";
        expectedAll += expected + "run";
    }
    EXPECT_EQ(report::jsonEscape(all), expectedAll);
    std::string appended = "prefix:";
    report::jsonEscape(appended, all);
    EXPECT_EQ(appended, "prefix:" + expectedAll);
}
