/**
 * @file
 * The execution timeline as recorded by the machine's trace buffer
 * (trace.categories=task, TaskExec spans): every task appears exactly
 * once, per-core intervals never overlap, parallelism is bounded by
 * the core count, and dependence order shows in the intervals.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "core/machine.hh"
#include "sim/trace.hh"
#include "workloads/registry.hh"

using namespace tdm;

namespace {

/** One task body execution, decoded from a TaskExec span. */
struct ExecSpan
{
    rt::TaskId task;
    sim::CoreId core;
    sim::Tick start;
    sim::Tick end;
};

/** Machine config with only the task trace category armed. */
cpu::MachineConfig
taskTraced(unsigned cores)
{
    cpu::MachineConfig cfg;
    cfg.numCores = cores;
    cfg.trace.categories = sim::parseTraceCategories("task");
    return cfg;
}

std::vector<ExecSpan>
execSpans(const sim::TraceBuffer &buf)
{
    std::vector<ExecSpan> out;
    buf.forEach([&](const sim::TraceRecord &r) {
        if (r.point == static_cast<std::uint16_t>(sim::TracePoint::TaskExec))
            out.push_back({r.a, r.core, r.tick, r.tick + r.dur});
    });
    return out;
}

/** Peak number of simultaneously executing spans (an end and a start
 *  at the same tick do not overlap). */
unsigned
peakParallelism(const std::vector<ExecSpan> &spans)
{
    std::vector<std::pair<sim::Tick, int>> events;
    for (const ExecSpan &s : spans) {
        events.emplace_back(s.start, +1);
        events.emplace_back(s.end, -1);
    }
    std::sort(events.begin(), events.end()); // ends sort before starts
    int cur = 0, peak = 0;
    for (const auto &[t, d] : events)
        peak = std::max(peak, cur += d);
    return static_cast<unsigned>(peak);
}

/** Busy time over makespan: mean number of executing cores. */
double
avgParallelism(const std::vector<ExecSpan> &spans, sim::Tick makespan)
{
    double busy = 0.0;
    for (const ExecSpan &s : spans)
        busy += static_cast<double>(s.end - s.start);
    return busy / static_cast<double>(makespan);
}

rt::TaskGraph
smallCholesky()
{
    wl::WorkloadParams p;
    p.granularity = 262144;
    return wl::buildWorkload("cholesky", p);
}

} // namespace

TEST(TaskTraceMachine, EveryTaskTracedOnce)
{
    rt::TaskGraph g = smallCholesky();
    const cpu::MachineConfig cfg = taskTraced(8);
    core::Machine m(cfg, g, core::RuntimeType::Tdm);
    auto res = m.run();
    ASSERT_TRUE(res.completed);
    EXPECT_EQ(m.traceBuffer().dropped(), 0u);

    const std::vector<ExecSpan> spans = execSpans(m.traceBuffer());
    ASSERT_EQ(spans.size(), g.numTasks());
    std::vector<unsigned> seen(g.numTasks(), 0);
    for (const ExecSpan &s : spans) {
        ASSERT_LT(s.task, g.numTasks());
        ++seen[s.task];
        EXPECT_LT(s.start, s.end);
        EXPECT_LE(s.end, res.makespan);
        EXPECT_LT(s.core, cfg.numCores);
    }
    for (unsigned s : seen)
        EXPECT_EQ(s, 1u);
}

TEST(TaskTraceMachine, PerCoreIntervalsDisjoint)
{
    rt::TaskGraph g = smallCholesky();
    core::Machine m(taskTraced(8), g, core::RuntimeType::Software);
    ASSERT_TRUE(m.run().completed);

    std::map<sim::CoreId, std::vector<std::pair<sim::Tick, sim::Tick>>>
        per_core;
    for (const ExecSpan &s : execSpans(m.traceBuffer()))
        per_core[s.core].emplace_back(s.start, s.end);
    ASSERT_FALSE(per_core.empty());
    for (auto &[core_id, ivals] : per_core) {
        std::sort(ivals.begin(), ivals.end());
        for (std::size_t i = 1; i < ivals.size(); ++i)
            EXPECT_LE(ivals[i - 1].second, ivals[i].first)
                << "overlap on core " << core_id;
    }
}

TEST(TaskTraceMachine, ParallelismBoundedByCores)
{
    rt::TaskGraph g = smallCholesky();
    const cpu::MachineConfig cfg = taskTraced(8);
    core::Machine m(cfg, g, core::RuntimeType::Tdm);
    auto res = m.run();
    ASSERT_TRUE(res.completed);
    const std::vector<ExecSpan> spans = execSpans(m.traceBuffer());
    EXPECT_LE(peakParallelism(spans), cfg.numCores);
    EXPECT_LE(avgParallelism(spans, res.makespan), cfg.numCores);
    EXPECT_GT(avgParallelism(spans, res.makespan), 1.0);
}

TEST(TaskTraceMachine, RespectsDependenceOrder)
{
    // In a chain graph, trace intervals must be strictly ordered.
    rt::TaskGraph g("chain");
    rt::RegionId r = g.addRegion(1024);
    g.beginParallel();
    for (int i = 0; i < 10; ++i) {
        g.createTask(sim::usToTicks(20));
        g.dep(r, rt::DepDir::InOut);
    }
    core::Machine m(taskTraced(4), g, core::RuntimeType::Tdm);
    ASSERT_TRUE(m.run().completed);
    const std::vector<ExecSpan> spans = execSpans(m.traceBuffer());
    ASSERT_EQ(spans.size(), 10u);
    std::vector<sim::Tick> start(10), end(10);
    for (const ExecSpan &s : spans) {
        start[s.task] = s.start;
        end[s.task] = s.end;
    }
    for (int i = 1; i < 10; ++i)
        EXPECT_GE(start[i], end[i - 1]);
}
