/**
 * @file
 * Reproduce Figure 1's execution timeline: run Cholesky under the
 * software runtime and under TDM with the task trace category armed,
 * print a coarse ASCII timeline of the per-core task execution spans,
 * and export Chrome-tracing JSON (open in chrome://tracing or
 * Perfetto).
 *
 * Usage: timeline_export [workload] [sw|tdm] [out.json]
 */

#include <fstream>
#include <iostream>
#include <string>

#include "core/machine.hh"
#include "driver/report/trace_writer.hh"
#include "sim/trace.hh"
#include "workloads/registry.hh"

using namespace tdm;

namespace {

bool
isExec(const sim::TraceRecord &r)
{
    return r.point == static_cast<std::uint16_t>(sim::TracePoint::TaskExec);
}

void
asciiTimeline(const sim::TraceBuffer &trace, unsigned cores,
              sim::Tick makespan, unsigned width = 72)
{
    for (unsigned c = 0; c < cores; ++c) {
        std::string row(width, '.');
        trace.forEach([&](const sim::TraceRecord &r) {
            if (!isExec(r) || r.core != c)
                return;
            auto a = static_cast<std::size_t>(
                static_cast<double>(r.tick) / makespan * width);
            auto b = static_cast<std::size_t>(
                static_cast<double>(r.tick + r.dur) / makespan * width);
            for (std::size_t i = a; i <= b && i < width; ++i)
                row[i] = '#';
        });
        std::cout << (c == 0 ? "master " : "core")
                  << (c == 0 ? "" : std::to_string(c))
                  << (c == 0 ? "" : "  ") << "\t" << row << '\n';
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = argc > 1 ? argv[1] : "cholesky";
    std::string rt_name = argc > 2 ? argv[2] : "sw";
    std::string out = argc > 3 ? argv[3] : "timeline.json";

    wl::WorkloadParams p;
    core::RuntimeType runtime = core::runtimeFromString(rt_name);
    p.tdmOptimal = core::traitsOf(runtime).usesDmu();
    rt::TaskGraph g = wl::buildWorkload(workload, p);

    cpu::MachineConfig cfg;
    cfg.trace.categories = sim::parseTraceCategories("task");
    core::Machine m(cfg, g, runtime);
    auto res = m.run();
    if (!res.completed) {
        std::cerr << "run did not complete\n";
        return 1;
    }

    std::size_t spans = 0;
    double busy = 0.0;
    m.traceBuffer().forEach([&](const sim::TraceRecord &r) {
        if (isExec(r)) {
            ++spans;
            busy += r.dur;
        }
    });
    std::cout << workload << " on " << rt_name << ": " << res.timeMs
              << " ms, avg parallelism "
              << busy / static_cast<double>(res.makespan) << "\n\n";
    asciiTimeline(m.traceBuffer(), cfg.numCores, res.makespan);

    std::ofstream f(out);
    driver::report::writeChromeTrace(
        f, m.traceBuffer(), {workload + " on " + rt_name, cfg.numCores, &g});
    std::cout << "\nwrote " << spans << " task intervals to " << out
              << " (chrome://tracing)\n";
    return 0;
}
