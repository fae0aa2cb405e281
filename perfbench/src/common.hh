/**
 * @file
 * Pieces the three benchmark workloads share: run options, the
 * repetition loop, output digests, the paper-accuracy figure, peak
 * memory, and the per-point counters and spans recorded from the
 * engine's results.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <string>

#include "driver/campaign/engine.hh"
#include "recorder.hh"

namespace perfbench {

namespace cmp = tdm::driver::campaign;

/** Engine workers every workload uses. */
constexpr unsigned kWorkers = 2;

/** The seed whose output digests are pinned in expected.json. */
constexpr std::uint64_t kDefaultSeed = 1;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir; ///< scratch directory for files the run makes
};

/**
 * Whether the repetition loop should run repetition @p rep: always
 * for the first @p minReps, then until @p deadline passes.
 */
bool anotherRep(int rep, int minReps, Clock::time_point deadline);

/**
 * FNV-1a hash of @p summary's metric tree: every key and the bit
 * pattern of its value. The exports render each double so that it
 * round-trips bit-exactly, so equal hashes mean byte-identical
 * exported metrics; hashing bits instead of rendered text keeps the
 * check cheap enough for the service clients' threads.
 */
std::uint64_t metricDigest(const tdm::driver::RunSummary &summary);

/**
 * Order-independent digest over labelled outputs: add (label,
 * metricDigest) pairs in any order; hex() hashes them in label order.
 */
class OutputDigest
{
  public:
    void add(const std::string &label, std::uint64_t metrics);
    std::string hex() const;

  private:
    std::map<std::string, std::uint64_t> byLabel_;
};

/**
 * Mean absolute error, in percent, of Fig. 13's six averages (geomean
 * speed-up and normalised EDP of Carbon, Task Superscalar and the best
 * TDM scheduler over SW+FIFO) against the paper's values.
 */
double paperErrPct(const cmp::CampaignResult &fig13);

/** Run fig13 on a fresh engine and return paperErrPct of it; counts
 *  the run's completion as one checked operation. */
double paperErrPctFresh(Recorder &rec);

/**
 * Peak resident set size of this process so far, in MB. The workloads
 * read it after their first repetition: later repetitions only add
 * allocator growth (freed memory the per-thread arenas keep), which
 * varies from run to run.
 */
double maxRssMb();

/**
 * Record a "sim.point" span for @p job, a point that just resolved at
 * @p now: it covers the point's simulate time (JobResult::wallMs) and
 * carries its runtime, cores (from its canonical spec), source and
 * simulated tasks.
 */
void recordPointSpan(Recorder &tr, const cmp::JobResult &job,
                     std::uint64_t parent, int rep, Clock::time_point now);

/**
 * Per-repetition counters of the engine and simulation layers,
 * accumulated from a repetition's JobResults and CampaignResults and
 * sampled into the recorder as one value per series.
 */
struct RepCounters
{
    double simulated = 0, forked = 0, memory = 0, disk = 0, inflight = 0;
    double jobWallMs = 0;   ///< summed per-point simulate time
    double engineWallMs = 0; ///< summed engine run() wall time
    double tasks = 0, dmuOps = 0, meshMessages = 0, flitHops = 0,
           l1Lines = 0;

    /** Fold one point: sources always, work counts for points this
     *  repetition simulated (cold or forked). */
    void addJob(const cmp::JobResult &job);
    /** Fold one campaign's engine wall time. */
    void addRun(const cmp::CampaignResult &result);
    /** Sample every counter as engine.* / work.* series. */
    void sample(Recorder &rec) const;
};

/** Entry points of the workloads. */
void runPaperFigs(const Options &opt, Recorder &rec);
void runDesignSweep(const Options &opt, Recorder &rec);
void runServiceReplay(const Options &opt, Recorder &rec);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
