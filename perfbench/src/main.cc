/**
 * @file
 * tdm_perfbench: runs one benchmark workload through the simulator's
 * public APIs and prints what it measured as one JSON line — sample
 * series, output-check accounting and notes. perfbench/run.py turns
 * that into the benchmark's named metrics.
 *
 *   tdm_perfbench --workload paper_figs|design_sweep|service_replay
 *                 --seed N --seconds S --workdir DIR
 *                 [--trace --spans FILE]
 *
 * With --trace, repetitions alternate between untraced and traced, the
 * traced ones record spans around the public calls they make, and the
 * spans are written to FILE (JSON lines) when the run ends.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "common.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::cerr << "tdm_perfbench: " << msg
              << "\nusage: tdm_perfbench --workload W --seed N "
                 "--seconds S --workdir DIR [--trace --spans FILE]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    std::string spansPath;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = value();
        else if (a == "--seed")
            opt.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::strtod(value().c_str(), nullptr);
        else if (a == "--workdir")
            opt.workdir = value();
        else if (a == "--spans")
            spansPath = value();
        else if (a == "--trace")
            opt.trace = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (opt.workdir.empty())
        usage("--workdir is required");
    if (opt.trace && spansPath.empty())
        usage("--trace needs --spans");
    std::filesystem::create_directories(opt.workdir);

    Recorder rec;
    try {
        if (opt.workload == "paper_figs")
            runPaperFigs(opt, rec);
        else if (opt.workload == "design_sweep")
            runDesignSweep(opt, rec);
        else if (opt.workload == "service_replay")
            runServiceReplay(opt, rec);
        else
            usage(("unknown workload " + opt.workload).c_str());
    } catch (const std::exception &e) {
        rec.check(false, std::string("aborted: ") + e.what());
    }

    if (opt.trace) {
        std::ofstream f(spansPath);
        rec.writeSpans(f);
        if (!f)
            rec.check(false, "cannot write spans to " + spansPath);
    }
    rec.writeJson(std::cout);
    std::cout << '\n';
    return 0;
}
