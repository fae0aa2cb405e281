/**
 * @file
 * The service workload, service_replay.
 *
 * An in-process CampaignServer (2 engine workers, persistent store,
 * HTTP dashboard on) serves a seeded closed loop: 2 ServiceClient
 * connections, each sending its next submission only after the
 * previous one's `done`, plus 1 SSE subscriber on /api/events.
 *
 * The store fixture is a catalogue of cheap points — {dedup,
 * histogram} x {sw, tdm} x 75 task-duration seeds — simulated once,
 * untimed, by a child process (so it does not count in this process's
 * peak memory). Each submission draws 8 distinct catalogue points
 * (first touches are disk reads, repeats memory hits) and adds 2 fresh
 * points that the other client's submission of the same index also
 * carries: one of them simulates and publishes to the store, the other
 * attaches in flight or hits memory.
 *
 * Every round restores the store from the fixture, so all rounds run
 * the same script against the same starting state.
 */

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common.hh"
#include "driver/campaign/fingerprint.hh"
#include "driver/service/client.hh"
#include "driver/service/protocol.hh"
#include "driver/service/server.hh"
#include "driver/service/store.hh"
#include "driver/spec/spec.hh"

namespace perfbench {

namespace drv = tdm::driver;
namespace svc = tdm::driver::service;
namespace fs = std::filesystem;

namespace {

constexpr int kClients = 2;
constexpr int kSubmissionsPerClient = 60;
constexpr int kCataloguePerSubmission = 8;
constexpr int kFreshPerSubmission = 2;
constexpr int kCatalogueSeeds = 75; ///< per (workload, runtime)
constexpr int kExtraSetups = 15;    ///< untraced set-ups per round
                                    ///< besides the one that serves it
constexpr int kFreshSeedOffset = 500; ///< fresh seeds follow the
                                      ///< catalogue's

const char *const kWorkloads[2] = {"dedup", "histogram"};
const char *const kRuntimes[2] = {"sw", "tdm"};

drv::SweepPoint
cheapPoint(const std::string &workload, const std::string &runtime,
           std::uint64_t noiseSeed)
{
    drv::SweepPoint p;
    p.label = workload + "/" + runtime + "/s" + std::to_string(noiseSeed);
    drv::spec::applyKey(p.exp, "workload", workload);
    drv::spec::applyKey(p.exp, "runtime", runtime);
    drv::spec::applyKey(p.exp, "workload.seed", std::to_string(noiseSeed));
    return p;
}

/** Everything the clients submit, generated from the seed. */
struct Script
{
    std::vector<drv::SweepPoint> catalogue;
    std::vector<drv::SweepPoint> fresh;
    /** submissions[client][j] */
    std::vector<std::vector<cmp::Campaign>> submissions;
    std::size_t pointsPerRound = 0;
};

Script
makeScript(std::uint64_t seed)
{
    Script s;
    const std::uint64_t base = seed * 1000; // wraps; only distinctness
                                            // within a run matters
    for (const char *w : kWorkloads)
        for (const char *r : kRuntimes)
            for (int k = 0; k < kCatalogueSeeds; ++k)
                s.catalogue.push_back(cheapPoint(w, r, base + k));
    const int freshCount = kSubmissionsPerClient * kFreshPerSubmission;
    for (int i = 0; i < freshCount; ++i)
        s.fresh.push_back(cheapPoint(kWorkloads[i % 2],
                                     kRuntimes[(i / 2) % 2],
                                     base + kFreshSeedOffset + i));

    s.submissions.resize(kClients);
    for (int c = 0; c < kClients; ++c) {
        std::mt19937_64 rng(seed * 2 + static_cast<std::uint64_t>(c));
        for (int j = 0; j < kSubmissionsPerClient; ++j) {
            cmp::Campaign sub;
            sub.name = "replay-c" + std::to_string(c) + "-" +
                       std::to_string(j);
            std::vector<std::size_t> drawn;
            while (drawn.size() < kCataloguePerSubmission) {
                const std::size_t k = rng() % s.catalogue.size();
                if (std::find(drawn.begin(), drawn.end(), k) ==
                    drawn.end())
                    drawn.push_back(k);
            }
            for (std::size_t k : drawn)
                sub.points.push_back(s.catalogue[k]);
            for (int f = 0; f < kFreshPerSubmission; ++f)
                sub.points.push_back(
                    s.fresh[j * kFreshPerSubmission + f]);
            s.pointsPerRound += sub.points.size();
            s.submissions[c].push_back(std::move(sub));
        }
    }
    return s;
}

/** Simulate the catalogue into a store at @p dir in a child process;
 *  true when the child stored every point. Call before this process
 *  starts any thread. */
bool
buildFixture(const Script &script, const std::string &dir)
{
    const pid_t pid = fork();
    if (pid < 0)
        return false;
    if (pid == 0) {
        int code = 1;
        try {
            svc::ResultStore store(dir);
            cmp::EngineOptions eo;
            eo.threads = kWorkers;
            eo.backend = &store;
            cmp::CampaignEngine engine(eo);
            const cmp::CampaignResult r =
                engine.run("catalogue", script.catalogue);
            code = r.allOk() && store.size() == script.catalogue.size()
                       ? 0
                       : 1;
        } catch (...) {
        }
        _exit(code);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/** A CampaignServer with its accept loop running; stops and joins on
 *  destruction. */
class RunningServer
{
  public:
    RunningServer(const svc::Address &addr, svc::ServerOptions opts)
        : server_(addr, std::move(opts)), thread_([this] { server_.serve(); })
    {
    }
    ~RunningServer()
    {
        server_.stop();
        thread_.join();
    }
    RunningServer(const RunningServer &) = delete;
    RunningServer &operator=(const RunningServer &) = delete;

    svc::CampaignServer &server() { return server_; }
    std::string address() const { return server_.address().display(); }

  private:
    svc::CampaignServer server_;
    std::thread thread_;
};

/** The SSE subscriber: counts the frames of /api/events on its own
 *  thread until the server closes the stream. */
class SseSubscriber
{
  public:
    explicit SseSubscriber(const svc::Address &http)
        : sock_(svc::connectTo(http))
    {
        sock_.sendAll("GET /api/events HTTP/1.1\r\n"
                      "Host: 127.0.0.1\r\n\r\n");
        thread_ = std::thread([this] {
            std::string line;
            while (sock_.readLine(line)) {
                if (line.rfind(": connected", 0) == 0)
                    connected_ = true;
                else if (line.rfind("event: ", 0) == 0) {
                    ++events_;
                    if (line == "event: point")
                        ++points_;
                }
            }
        });
    }
    ~SseSubscriber()
    {
        ::shutdown(sock_.fd(), SHUT_RDWR);
        thread_.join();
    }
    SseSubscriber(const SseSubscriber &) = delete;
    SseSubscriber &operator=(const SseSubscriber &) = delete;

    /** Wait until @p done() holds or @p timeout passes. */
    template <typename Pred>
    bool waitFor(Pred done, std::chrono::milliseconds timeout) const
    {
        const Clock::time_point until = Clock::now() + timeout;
        while (!done()) {
            if (Clock::now() > until)
                return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return true;
    }

    bool connected() const { return connected_; }
    std::uint64_t events() const { return events_; }
    std::uint64_t points() const { return points_; }

  private:
    svc::Socket sock_;
    std::atomic<bool> connected_{false};
    std::atomic<std::uint64_t> events_{0};
    std::atomic<std::uint64_t> points_{0};
    std::thread thread_;
};

/** Labelled metric hashes streamed to the clients. */
class StreamedHashes
{
  public:
    void add(const std::string &label, std::uint64_t h, Recorder &rec)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto [it, fresh] = hashes_.emplace(label, h);
        if (!fresh)
            rec.check(it->second == h,
                      label + ": streamed metrics differ between "
                              "submissions");
    }
    std::map<std::string, std::uint64_t> all() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return hashes_;
    }

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::uint64_t> hashes_;
};

/** The setup of one server: construction (store open and binds),
 *  first client connection and first answered ping. */
std::unique_ptr<RunningServer>
startServer(const svc::ServerOptions &so,
            std::unique_ptr<svc::ServiceClient> &client, Recorder &rec,
            Recorder *tr, std::uint64_t parent, int rep)
{
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<RunningServer> srv;
    {
        ScopedSpan setup(tr, "setup", parent, rep);
        {
            ScopedSpan s(tr, "server.start", setup.id(), rep);
            srv = std::make_unique<RunningServer>(
                svc::parseAddress("tcp:127.0.0.1:0"), so);
        }
        {
            ScopedSpan s(tr, "client.connect", setup.id(), rep);
            client = std::make_unique<svc::ServiceClient>(srv->address());
        }
        ScopedSpan s(tr, "ping", setup.id(), rep);
        rec.check(client->ping(), "setup: ping unanswered");
    }
    if (!tr)
        rec.sample("setup_s", secondsBetween(t0, Clock::now()));
    return srv;
}

void
runRound(const Script &script, const std::string &fixtureDir,
         const std::string &roundDir, int rep, Recorder &rec,
         Recorder *tr, StreamedHashes &hashes)
{
    fs::remove_all(roundDir);
    fs::copy(fixtureDir, roundDir, fs::copy_options::recursive);

    svc::ServerOptions so;
    so.engine.threads = kWorkers;
    so.storeDir = roundDir;
    so.httpAddr = "tcp:127.0.0.1:0";

    ScopedSpan round(tr, "rep", 0, rep);
    for (int i = 0; i < (tr ? 0 : kExtraSetups); ++i) {
        std::unique_ptr<svc::ServiceClient> client;
        auto srv = startServer(so, client, rec, tr, round.id(), rep);
    }
    std::vector<std::unique_ptr<svc::ServiceClient>> clients(kClients);
    auto srv = startServer(so, clients[0], rec, tr, round.id(), rep);
    for (int c = 1; c < kClients; ++c)
        clients[c] = std::make_unique<svc::ServiceClient>(srv->address());
    SseSubscriber sse(*srv->server().httpAddress());
    rec.check(sse.waitFor([&] { return sse.connected(); },
                          std::chrono::seconds(10)),
              "SSE subscriber did not connect");

    RepCounters counters;
    std::mutex countersMutex;
    const Clock::time_point t0 = Clock::now();
    {
        ScopedSpan timed(tr, "timed", round.id(), rep);
        auto clientLoop = [&](int c) {
            for (const cmp::Campaign &sub : script.submissions[c]) {
                try {
                    ScopedSpan span(tr, "submit", timed.id(), rep);
                    const Clock::time_point s0 = Clock::now();
                    const cmp::CampaignResult res = clients[c]->submit(
                        sub, [&](const cmp::JobResult &job, std::size_t,
                                 std::size_t) {
                            if (tr &&
                                job.source == cmp::JobSource::Simulated)
                                recordPointSpan(*tr, job, span.id(), rep,
                                                Clock::now());
                        });
                    if (!tr)
                        rec.sample("submit_ms",
                                   1e3 * secondsBetween(s0, Clock::now()));
                    rec.check(res.jobs.size() == sub.points.size(),
                              sub.name + ": points missing");
                    for (const cmp::JobResult &job : res.jobs) {
                        rec.check(job.ok(), sub.name + " " + job.label +
                                                " failed: " + job.error);
                        hashes.add(job.label, metricDigest(job.summary),
                                   rec);
                        std::lock_guard<std::mutex> lock(countersMutex);
                        counters.addJob(job);
                    }
                } catch (const std::exception &e) {
                    rec.check(false, sub.name + ": " + e.what());
                }
            }
        };
        std::vector<std::thread> threads;
        for (int c = 0; c < kClients; ++c)
            threads.emplace_back(clientLoop, c);
        for (std::thread &t : threads)
            t.join();
    }
    const double wall = secondsBetween(t0, Clock::now());

    rec.check(sse.waitFor(
                  [&] { return sse.points() >= script.pointsPerRound; },
                  std::chrono::seconds(10)) &&
                  sse.points() == script.pointsPerRound,
              "SSE subscriber saw " + std::to_string(sse.points()) +
                  " of " + std::to_string(script.pointsPerRound) +
                  " point events");
    rec.sample("sse.events", static_cast<double>(sse.events()));
    rec.sample("sse.dropped",
               static_cast<double>(srv->server().status().busDropped));

    counters.engineWallMs = 1e3 * wall;
    counters.sample(rec);
    // Every fresh point simulates exactly once per round, whichever
    // client gets there first.
    rec.check(counters.simulated ==
                  static_cast<double>(script.fresh.size()),
              "fresh points simulated " +
                  std::to_string(counters.simulated) +
                  " times, expected " +
                  std::to_string(script.fresh.size()));
    rec.sample(tr ? "traced_campaign_s" : "campaign_s", wall);
}

/**
 * Store and protocol layers, driven directly (traced runs): open a
 * copy of the fixture, fetch every catalogue point and publish every
 * fresh one; encode every point with writePoint and decode it back
 * with parseJson + decodePointEvent.
 */
void
layerPass(const Script &script, const cmp::CampaignResult &local,
          const std::string &fixtureDir, const std::string &dir,
          Recorder &rec)
{
    std::unordered_map<std::string, const cmp::JobResult *> byLabel;
    for (const cmp::JobResult &j : local.jobs)
        byLabel[j.label] = &j;

    fs::remove_all(dir);
    fs::copy(fixtureDir, dir, fs::copy_options::recursive);
    const std::uint64_t pass = rec.reserveId();
    const Clock::time_point p0 = Clock::now();
    {
        std::unique_ptr<svc::ResultStore> store;
        {
            ScopedSpan s(&rec, "store.open", pass, 0);
            store = std::make_unique<svc::ResultStore>(dir);
        }
        rec.sample("store.blobs", static_cast<double>(store->size()));
        for (const drv::SweepPoint &p : script.catalogue) {
            const std::string key = cmp::fingerprint(p.exp);
            std::optional<drv::RunSummary> got;
            {
                ScopedSpan s(&rec, "store.fetch", pass, 0);
                got = store->fetch(key);
            }
            const auto it = byLabel.find(p.label);
            rec.check(got && it != byLabel.end() &&
                          metricDigest(*got) ==
                              metricDigest(it->second->summary),
                      p.label + ": store fetch differs from a local run");
        }
        for (const drv::SweepPoint &p : script.fresh) {
            const auto it = byLabel.find(p.label);
            if (it == byLabel.end())
                continue;
            const std::string key = cmp::fingerprint(p.exp);
            ScopedSpan s(&rec, "store.publish", pass, 0);
            store->publish(key, it->second->summary);
        }
        rec.sample("store.corrupt", static_cast<double>(store->corrupt()));
    }
    for (std::size_t i = 0; i < local.jobs.size(); ++i) {
        const cmp::JobResult &job = local.jobs[i];
        std::string line;
        {
            ScopedSpan s(&rec, "protocol.encode", pass, 0);
            std::ostringstream os;
            svc::writePoint(os, 1, job, i, local.jobs.size(), "");
            line = os.str();
        }
        cmp::JobResult decoded;
        bool ok = false;
        {
            ScopedSpan s(&rec, "protocol.decode", pass, 0);
            svc::JsonValue event;
            std::string error;
            std::size_t index = 0, total = 0;
            ok = svc::parseJson(line, event, error) &&
                 svc::decodePointEvent(event, decoded, index, total);
        }
        rec.check(ok && metricDigest(decoded.summary) ==
                            metricDigest(job.summary),
                  job.label + ": protocol round trip changed the metrics");
    }
    rec.spanAs(pass, "layer.pass", 0, 0, p0, Clock::now());
    fs::remove_all(dir);
}

} // namespace

void
runServiceReplay(const Options &opt, Recorder &rec)
{
    const Script script = makeScript(opt.seed);
    const std::string fixtureDir = opt.workdir + "/fixture";
    const std::string roundDir = opt.workdir + "/round";
    fs::remove_all(fixtureDir);
    const bool fixtureOk = buildFixture(script, fixtureDir);
    rec.check(fixtureOk, "store fixture could not be built");
    if (!fixtureOk)
        return;

    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt.seconds));
    const int minReps = opt.trace ? 2 : 1;
    StreamedHashes hashes;
    for (int rep = 0; anotherRep(rep, minReps, deadline); ++rep) {
        const bool traced = opt.trace && rep % 2 == 1;
        runRound(script, fixtureDir, roundDir, rep, rec,
                 traced ? &rec : nullptr, hashes);
        if (rep == 0)
            rec.sample("max_rss_mb", maxRssMb());
    }
    fs::remove_all(roundDir);

    // Every streamed point must equal a local engine's run of its spec.
    std::vector<drv::SweepPoint> points = script.catalogue;
    points.insert(points.end(), script.fresh.begin(), script.fresh.end());
    cmp::EngineOptions eo;
    eo.threads = kWorkers;
    cmp::CampaignEngine engine(eo);
    const cmp::CampaignResult local = engine.run("local", points);
    std::unordered_map<std::string, std::uint64_t> localHash;
    for (const cmp::JobResult &j : local.jobs) {
        rec.check(j.ok(), "local " + j.label + " failed: " + j.error);
        localHash[j.label] = metricDigest(j.summary);
    }
    OutputDigest digest;
    for (const auto &[label, h] : hashes.all()) {
        const auto it = localHash.find(label);
        rec.check(it != localHash.end() && it->second == h,
                  label + ": streamed metrics differ from a local run");
        digest.add(label, h);
    }
    rec.note("digest", digest.hex());

    if (opt.trace)
        layerPass(script, local, fixtureDir, opt.workdir + "/layer", rec);
    else
        rec.sample("paper_err_pct", paperErrPctFresh(rec));
    fs::remove_all(fixtureDir);
}

} // namespace perfbench
