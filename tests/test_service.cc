/**
 * @file
 * Campaign-service tests: the wire protocol (JSON parsing, request
 * validation, point-event round-trips) and the live server/client
 * stack — concurrent clients deduplicating onto one engine, a
 * cold-restarted server replaying a sweep entirely from its
 * persistent store with byte-identical metrics, the connection
 * lifecycle: reaping, racing stops, and the request-line cap, and the
 * transport: no-delay TCP sockets, unix sockets, and submits that
 * carry only non-default spec keys.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "driver/campaign/engine.hh"
#include "driver/campaign/fingerprint.hh"
#include "driver/service/client.hh"
#include "driver/service/protocol.hh"
#include "driver/service/server.hh"
#include "driver/service/store.hh"
#include "driver/report/json_writer.hh"
#include "driver/spec/campaign_file.hh"

using namespace tdm;
using namespace tdm::driver;
namespace svc = tdm::driver::service;
namespace fs = std::filesystem;

// ---- protocol: JSON parser ----------------------------------------------

TEST(ServiceJson, ParsesNestedDocument)
{
    svc::JsonValue v;
    std::string err;
    ASSERT_TRUE(svc::parseJson(
        R"({"op":"submit","n":3,"f":-1.5e2,"b":true,"null":null,)"
        R"("arr":[1,"two",{"three":3}],"esc":"a\"b\\c\n\u0041"})",
        v, err))
        << err;
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.find("op")->asString(), "submit");
    EXPECT_EQ(v.find("n")->asNumber(), 3.0);
    EXPECT_EQ(v.find("f")->asNumber(), -150.0);
    EXPECT_TRUE(v.find("b")->asBool());
    EXPECT_EQ(v.find("null")->kind, svc::JsonValue::Kind::Null);
    ASSERT_EQ(v.find("arr")->items.size(), 3u);
    EXPECT_EQ(v.find("arr")->items[1].asString(), "two");
    EXPECT_EQ(v.find("arr")->items[2].find("three")->asNumber(), 3.0);
    EXPECT_EQ(v.find("esc")->asString(), "a\"b\\c\nA");
}

TEST(ServiceJson, RejectsMalformedInput)
{
    svc::JsonValue v;
    std::string err;
    for (const char *bad :
         {"", "{", "{\"a\":}", "[1,]", "{\"a\":1}trailing", "\"\\q\"",
          "{\"a\" 1}", "nul", "01", "--1", "\"unterminated"}) {
        EXPECT_FALSE(svc::parseJson(bad, v, err)) << bad;
    }
}

TEST(ServiceJson, NumbersKeepRawTextForExactIntegers)
{
    // u64 values past 2^53 survive because consumers read the raw
    // literal, not the double.
    svc::JsonValue v;
    std::string err;
    ASSERT_TRUE(svc::parseJson("{\"m\":2305843009213706617}", v, err));
    EXPECT_EQ(v.find("m")->text, "2305843009213706617");
}

// ---- protocol: requests --------------------------------------------------

TEST(ServiceProtocol, ParsesSubmitWithPoints)
{
    svc::Request req;
    std::string err;
    ASSERT_TRUE(svc::parseRequest(
        R"({"op":"submit","name":"grid","metrics":"dmu.*",)"
        R"("set":{"machine.cores":16},)"
        R"("points":[{"label":"a","spec":{"workload":"cholesky"}},)"
        R"({"spec":{"workload":"fft","seed":7}}]})",
        req, err))
        << err;
    EXPECT_EQ(req.op, svc::RequestOp::Submit);
    EXPECT_EQ(req.submit.name, "grid");
    EXPECT_EQ(req.submit.metrics, "dmu.*");
    ASSERT_EQ(req.submit.set.size(), 1u);
    EXPECT_EQ(req.submit.set[0].first, "machine.cores");
    EXPECT_EQ(req.submit.set[0].second, "16");
    ASSERT_EQ(req.submit.points.size(), 2u);
    EXPECT_EQ(req.submit.points[0].label, "a");
    EXPECT_EQ(req.submit.points[1].label, "");
    ASSERT_EQ(req.submit.points[1].spec.size(), 2u);
    EXPECT_EQ(req.submit.points[1].spec[1].second, "7");
}

TEST(ServiceProtocol, RejectsInvalidRequests)
{
    svc::Request req;
    std::string err;
    for (const char *bad : {
             "{}",                                   // no op
             R"({"op":"frobnicate"})",               // unknown op
             R"({"op":"submit"})",                   // neither body
             R"({"op":"submit","campaign":"x",)"
             R"("points":[{"spec":{}}]})",           // both bodies
             R"({"op":"submit","points":[]})",       // empty grid
             R"({"op":"submit","points":[{}]})",     // point sans spec
             R"({"op":"submit","campaign":42})",     // wrong type
             R"({"op":"submit","points":[{"spec":)"
             R"({"k":[1]}}]})",                      // non-scalar value
         }) {
        EXPECT_FALSE(svc::parseRequest(bad, req, err)) << bad;
    }
}

TEST(ServiceProtocol, PointEventRoundTrips)
{
    campaign::JobResult job;
    job.label = "cholesky/fifo";
    job.digest = "114b9f71d3add9e3";
    job.source = campaign::JobSource::Disk;
    job.cacheHit = true;
    job.wallMs = 0.0;
    job.summary.completed = true;
    job.summary.makespan = (sim::Tick{1} << 60) + 99; // > 2^53
    job.summary.timeMs = 0.1 + 0.2;
    job.summary.machine.metrics.set("dmu.tat.hit_rate",
                                    0.81481481481481477);
    job.summary.machine.metrics.set("machine.time_ms", 0.1 + 0.2);

    std::ostringstream os;
    svc::writePoint(os, 7, job, 2, 5, "*");
    std::string line = os.str();
    ASSERT_EQ(line.back(), '\n');
    line.pop_back();

    svc::JsonValue event;
    std::string err;
    ASSERT_TRUE(svc::parseJson(line, event, err)) << err;
    campaign::JobResult decoded;
    std::size_t index = 0, total = 0;
    ASSERT_TRUE(svc::decodePointEvent(event, decoded, index, total));
    EXPECT_EQ(index, 2u);
    EXPECT_EQ(total, 5u);
    EXPECT_EQ(decoded.label, job.label);
    EXPECT_EQ(decoded.digest, job.digest);
    EXPECT_EQ(decoded.source, campaign::JobSource::Disk);
    EXPECT_TRUE(decoded.cacheHit);
    EXPECT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.summary.makespan, job.summary.makespan);
    EXPECT_EQ(decoded.summary.timeMs, job.summary.timeMs);
    EXPECT_EQ(decoded.summary.machine.metrics.entries(),
              job.summary.machine.metrics.entries());
}

namespace {

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

/** parseJson + decodePointEvent, the client's decode path. */
bool
decodeLine(const std::string &line, campaign::JobResult &job)
{
    svc::JsonValue event;
    std::string err;
    std::size_t index = 0, total = 0;
    return svc::parseJson(line, event, err) &&
           svc::decodePointEvent(event, job, index, total);
}

/** A point event carrying @p metrics as its metrics object. */
std::string
pointWithMetrics(const std::string &metrics)
{
    return R"({"event":"point","index":0,"total":1,"label":"a",)"
           R"("source":"simulated","metrics":)" + metrics + "}";
}

} // namespace

TEST(ServiceProtocol, Fig13PointEventsDecodeBitIdentical)
{
    campaign::EngineOptions opts;
    opts.threads = 2;
    campaign::CampaignEngine engine(opts);
    const campaign::CampaignResult result =
        engine.run(campaign::makeCampaign("fig13"));
    ASSERT_EQ(result.jobs.size(), 72u);
    // The whole tree, and a strict subset of it.
    for (const std::string pattern : {"", "mesh.*,power.*"}) {
        for (std::size_t i = 0; i < result.jobs.size(); ++i) {
            const campaign::JobResult &job = result.jobs[i];
            std::string line;
            svc::writePoint(line, 1, job, i, result.jobs.size(), pattern);
            campaign::JobResult decoded;
            ASSERT_TRUE(decodeLine(line, decoded)) << job.label;
            const sim::MetricSet want =
                job.summary.metrics().select(pattern);
            ASSERT_FALSE(want.empty());
            ASSERT_EQ(want.size() < job.summary.metrics().size(),
                      !pattern.empty());
            const auto &got = decoded.summary.metrics().entries();
            ASSERT_EQ(got.size(), want.size()) << job.label;
            auto it = got.begin();
            for (const auto &[k, v] : want.entries()) {
                EXPECT_EQ(it->first, k) << job.label;
                EXPECT_EQ(bitsOf(it->second), bitsOf(v))
                    << job.label << ": " << k;
                ++it;
            }
            EXPECT_EQ(decoded.summary.makespan, job.summary.makespan);
        }
    }
}

TEST(ServiceProtocol, PointEventMetricShapesKeepTheirOutcome)
{
    campaign::JobResult job;
    // Only numbers are metric values: a string, a nested object or a
    // null (what a non-finite value is written as) fails the event.
    EXPECT_FALSE(decodeLine(pointWithMetrics(R"({"a":1,"b":"x"})"), job));
    EXPECT_FALSE(
        decodeLine(pointWithMetrics(R"({"a":1,"b":{"c":2}})"), job));
    EXPECT_FALSE(decodeLine(pointWithMetrics(R"({"a":null})"), job));
    EXPECT_FALSE(decodeLine(pointWithMetrics(R"([1,2])"), job));

    ASSERT_TRUE(decodeLine(pointWithMetrics("{}"), job));
    EXPECT_TRUE(job.summary.metrics().empty());
    // Keys out of order still land sorted; a repeated key keeps its
    // last value.
    ASSERT_TRUE(decodeLine(
        pointWithMetrics(R"({"b":1,"a":2,"c":3,"a":4,"b":5})"), job));
    const auto &m = job.summary.metrics().entries();
    ASSERT_EQ(m.size(), 3u);
    EXPECT_EQ(m.at("a"), 4.0);
    EXPECT_EQ(m.at("b"), 5.0);
    EXPECT_EQ(m.at("c"), 3.0);
}

namespace {

/**
 * Send @p c's points as ServiceClient::submit does (label plus
 * specDelta of the canonical spec) and rebuild them as the server
 * does (buildCampaign); every point must come back with its canonical
 * spec. Returns {full spec bytes, sent spec bytes}.
 */
std::pair<std::size_t, std::size_t>
expectDeltaRoundTrip(const campaign::Campaign &c)
{
    std::size_t fullBytes = 0, deltaBytes = 0;
    svc::SubmitRequest req;
    std::vector<std::string> canonical;
    for (const SweepPoint &p : c.points) {
        const sim::Config spec = campaign::canonicalConfig(p.exp);
        canonical.push_back(spec.serialize());
        svc::SubmitRequest::Point sent;
        sent.label = p.label;
        const sim::Config delta = svc::specDelta(spec);
        sent.spec.assign(delta.entries().begin(), delta.entries().end());
        for (const auto &[k, v] : spec.entries())
            fullBytes += k.size() + v.size() + 6; // "k":"v",
        for (const auto &[k, v] : sent.spec)
            deltaBytes += k.size() + v.size() + 6;
        req.points.push_back(std::move(sent));
    }
    const campaign::Campaign rebuilt = svc::buildCampaign(req);
    EXPECT_EQ(rebuilt.points.size(), c.points.size());
    for (std::size_t i = 0; i < rebuilt.points.size(); ++i)
        EXPECT_EQ(campaign::canonicalConfig(rebuilt.points[i].exp)
                      .serialize(),
                  canonical[i])
            << c.name << ": " << c.points[i].label;
    return {fullBytes, deltaBytes};
}

} // namespace

TEST(ServiceProtocol, SubmitSpecDeltaRebuildsEveryRegisteredCampaign)
{
    std::size_t full = 0, delta = 0, points = 0;
    for (const auto &[name, desc] : campaign::campaignList()) {
        const campaign::Campaign c = campaign::makeCampaign(name);
        const auto [f, d] = expectDeltaRoundTrip(c);
        full += f;
        delta += d;
        points += c.points.size();
    }
    EXPECT_GE(points, 222u);
    // Most keys sit at their defaults, so the request shrinks by far
    // more than an order of magnitude.
    EXPECT_LT(delta * 10, full);
}

TEST(ServiceProtocol, SubmitSpecDeltaRebuildsZippedMeshGrid)
{
    // A zipped core-count/mesh axis: points whose mesh differs from
    // the default's sit next to points whose cores do not.
    std::istringstream text(
        "[meta]\n"
        "name = zipped\n"
        "label = {workload}/c{machine.cores}/{runtime}"
        "/l1_{mem.l1_bytes}/w{power.active_w}\n"
        "set workload.seed = 1\n"
        "axis workload = cholesky, qr, streamcluster\n"
        "zip machine.cores, mesh.width, mesh.height = "
        "8, 3, 3 | 16, 5, 5 | 32, 6, 6 | 64, 9, 9\n"
        "axis runtime = sw, tdm\n"
        "axis mem.l1_bytes = 16384, 65536\n"
        "axis power.active_w = 0.6, 1.2\n");
    const campaign::Campaign c =
        spec::parseCampaignFile(text, "zipped").toCampaign();
    ASSERT_EQ(c.points.size(), 96u);
    expectDeltaRoundTrip(c);
}

// ---- live server/client --------------------------------------------------

namespace {

Experiment
point(const std::string &sched, unsigned cores)
{
    Experiment e;
    e.workload = "cholesky";
    e.params.granularity = 262144; // 8x8 tiles, 120 tasks: fast
    e.runtime = core::RuntimeType::Tdm;
    e.config.scheduler = sched;
    e.config.numCores = cores;
    return e;
}

campaign::Campaign
grid(const std::string &name, std::vector<SweepPoint> points)
{
    campaign::Campaign c;
    c.name = name;
    c.points = std::move(points);
    c.metrics = "dmu.tat.*";
    return c;
}

/** The six distinct specs the concurrent clients overlap on. */
std::vector<SweepPoint>
distinctSix()
{
    return {
        {"fifo8", point("fifo", 8)},    {"age8", point("age", 8)},
        {"loc8", point("locality", 8)}, {"fifo16", point("fifo", 16)},
        {"age16", point("age", 16)},    {"fifo4", point("fifo", 4)},
    };
}

/** Render a job's selected metrics exactly as the service does, for
 *  byte-level comparison across server generations. */
std::string
metricBytes(const campaign::JobResult &job)
{
    std::ostringstream os;
    for (const auto &[k, v] : job.summary.metrics().entries()) {
        os << k << "=";
        report::jsonNumber(os, v);
        os << ";";
    }
    return os.str();
}

/** An in-process daemon on an ephemeral loopback port. */
class ServerFixture
{
  public:
    explicit ServerFixture(const std::string &store_dir)
    {
        svc::ServerOptions opts;
        opts.engine.threads = 2;
        opts.storeDir = store_dir;
        server_ = std::make_unique<svc::CampaignServer>(
            svc::parseAddress("tcp:127.0.0.1:0"), opts);
        thread_ = std::thread([this] { server_->serve(); });
    }

    ~ServerFixture() { stop(); }

    void
    stop()
    {
        if (thread_.joinable()) {
            server_->stop();
            thread_.join();
        }
    }

    std::string address() const { return server_->address().display(); }
    svc::CampaignServer &server() { return *server_; }

  private:
    std::unique_ptr<svc::CampaignServer> server_;
    std::thread thread_;
};

} // namespace

TEST(ServiceServer, PingStatusAndErrorReporting)
{
    const std::string dir =
        (fs::temp_directory_path()
         / ("tdm_svc_ping_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);
    ServerFixture fx(dir);

    svc::ServiceClient client(fx.address());
    EXPECT_TRUE(client.ping());
    svc::StatusInfo info = client.status();
    EXPECT_EQ(info.campaigns, 0u);
    EXPECT_TRUE(info.hasStore);
    EXPECT_EQ(info.storeBlobs, 0u);

    // A bad submission is an error event, not a dropped connection —
    // the same socket keeps serving afterwards. Driven over a raw
    // socket: the C++ client validates specs before sending.
    svc::Socket raw =
        svc::connectTo(svc::parseAddress(fx.address()));
    ASSERT_TRUE(raw.sendAll(
        "{\"op\":\"submit\",\"points\":[{\"spec\":"
        "{\"workload\":\"no-such-workload\"}}]}\n"));
    std::string line;
    ASSERT_TRUE(raw.readLine(line));
    EXPECT_NE(line.find("\"event\":\"error\""), std::string::npos)
        << line;
    ASSERT_TRUE(raw.sendAll("{\"op\":\"ping\"}\n"));
    ASSERT_TRUE(raw.readLine(line));
    EXPECT_NE(line.find("\"event\":\"pong\""), std::string::npos);
    // Unparseable garbage likewise answers with an error event.
    ASSERT_TRUE(raw.sendAll("this is not json\n"));
    ASSERT_TRUE(raw.readLine(line));
    EXPECT_NE(line.find("\"event\":\"error\""), std::string::npos);

    fx.stop();
    fs::remove_all(dir);
}

TEST(ServiceServer, ConcurrentClientsSimulateEachPointOnce)
{
    const std::string dir =
        (fs::temp_directory_path()
         / ("tdm_svc_dedup_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);
    ServerFixture fx(dir);

    // Four clients, each submitting an overlapping 4-point slice of
    // the same six distinct specs, all in flight together.
    const auto six = distinctSix();
    constexpr unsigned kClients = 4;
    std::vector<campaign::CampaignResult> results(kClients);
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            std::vector<SweepPoint> slice;
            for (unsigned i = 0; i < 4; ++i)
                slice.push_back(six[(c + i) % six.size()]);
            svc::ServiceClient client(fx.address());
            results[c] = client.submit(
                grid("overlap-" + std::to_string(c), slice));
        });
    }
    for (std::thread &t : clients)
        t.join();

    std::uint64_t simulated = 0;
    for (const auto &rep : results) {
        ASSERT_EQ(rep.jobs.size(), 4u);
        EXPECT_TRUE(rep.allOk()) << rep.name;
        simulated += rep.simulated;
    }
    // THE dedup invariant: one simulation ever per distinct
    // fingerprint, no matter how the concurrent submissions raced —
    // everything else was served from memory or the in-flight table.
    EXPECT_EQ(simulated, six.size());

    // Identical specs resolved identically for every client.
    for (unsigned c = 1; c < kClients; ++c)
        for (unsigned i = 0; i < 4; ++i)
            for (unsigned j = 0; j < 4; ++j)
                if (results[c].jobs[i].digest
                    == results[0].jobs[j].digest) {
                    EXPECT_EQ(results[c].jobs[i].summary.makespan,
                              results[0].jobs[j].summary.makespan);
                }

    svc::ServiceClient probe(fx.address());
    svc::StatusInfo info = probe.status();
    EXPECT_EQ(info.simulated, six.size());
    EXPECT_EQ(info.storeBlobs, six.size());

    fx.stop();
    fs::remove_all(dir);
}

TEST(ServiceServer, RestartServesSweepEntirelyFromDisk)
{
    const std::string dir =
        (fs::temp_directory_path()
         / ("tdm_svc_restart_" + std::to_string(::getpid())))
            .string();
    fs::remove_all(dir);

    const auto six = distinctSix();
    campaign::CampaignResult first;
    {
        ServerFixture fx(dir);
        svc::ServiceClient client(fx.address());
        first = client.submit(grid("sweep", six));
        ASSERT_TRUE(first.allOk());
        EXPECT_EQ(first.simulated, six.size());
        fx.stop(); // daemon gone; only the store survives
    }

    ServerFixture fx(dir);
    svc::ServiceClient client(fx.address());
    campaign::CampaignResult replay = client.submit(grid("sweep", six));
    ASSERT_TRUE(replay.allOk());

    // Zero simulations: every point came off disk.
    EXPECT_EQ(replay.simulated, 0u);
    EXPECT_EQ(replay.fromDisk, six.size());
    EXPECT_EQ(replay.fromMemory, 0u);

    // And byte-identical metrics: the store's 17-digit round-trip plus
    // the shared jsonNumber formatter make the replayed export
    // indistinguishable from the original.
    for (std::size_t i = 0; i < six.size(); ++i) {
        EXPECT_EQ(replay.jobs[i].digest, first.jobs[i].digest);
        EXPECT_EQ(replay.jobs[i].summary.makespan,
                  first.jobs[i].summary.makespan);
        EXPECT_EQ(metricBytes(replay.jobs[i]), metricBytes(first.jobs[i]))
            << replay.jobs[i].label;
    }

    fx.stop();
    fs::remove_all(dir);
}

// ---- connection lifecycle (the Acceptor skeleton) -----------------------

TEST(ServiceLifecycle, ReapsFinishedProtocolConnections)
{
    ServerFixture fx(""); // memory-only
    for (int i = 0; i < 64; ++i) {
        svc::ServiceClient client(fx.address());
        ASSERT_TRUE(client.ping());
    }
    // Each accept joins the connections whose handler has returned, so
    // only the last client or two can still be tracked; a grow-only
    // thread list would hold all 64 until shutdown.
    EXPECT_LE(fx.server().trackedConnections(), 2u);
    fx.stop();
    EXPECT_EQ(fx.server().trackedConnections(), 0u);
}

TEST(ServiceLifecycle, ShutdownOpRacesExternalStopAndDestructor)
{
    for (int round = 0; round < 8; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        svc::ServerOptions opts;
        opts.engine.threads = 1;
        opts.httpAddr = "tcp:127.0.0.1:0"; // the full teardown path
        auto server = std::make_unique<svc::CampaignServer>(
            svc::parseAddress("tcp:127.0.0.1:0"), opts);
        std::thread serving([&] { server->serve(); });

        // An idle client the teardown must unblock, and one that asks
        // the daemon to shut down while another thread stops it.
        svc::Socket idle = svc::connectTo(server->address());
        svc::Socket asker = svc::connectTo(server->address());
        std::thread stopper([&] { server->stop(); });
        asker.sendAll("{\"op\":\"shutdown\"}\n");
        std::string line;
        while (idle.readLine(line)) {
        } // EOF once the daemon shuts the connection down

        stopper.join();
        serving.join();
        EXPECT_EQ(server->trackedConnections(), 0u);
        server.reset(); // destructor: a third stop(), then teardown
    }
}

TEST(ServiceLifecycle, OversizeRequestLineIsRefusedOthersKeepServing)
{
    ServerFixture fx("");
    svc::ServiceClient bystander(fx.address());
    ASSERT_TRUE(bystander.ping());

    svc::Socket hog = svc::connectTo(svc::parseAddress(fx.address()));
    // The sender may fail once the server gives up on the line and
    // closes; that is the expected outcome, not an error.
    std::thread sender([&] {
        hog.sendAll(std::string(svc::Socket::kMaxLineBytes + 65536, 'x')
                    + "\n");
    });
    std::string line;
    ASSERT_TRUE(hog.readLine(line));
    EXPECT_NE(line.find("\"event\":\"error\""), std::string::npos)
        << line.substr(0, 200);
    EXPECT_NE(line.find("exceeds"), std::string::npos);
    EXPECT_FALSE(hog.readLine(line)); // and the connection is closed
    sender.join();

    EXPECT_TRUE(bystander.ping());
    svc::ServiceClient newcomer(fx.address());
    EXPECT_TRUE(newcomer.ping());
}

TEST(ServiceLifecycle, ReadLineCapsBufferedBytes)
{
    // Both directions share the cap: a peer that never sends '\n'
    // gets refused at kMaxLineBytes, not buffered until memory runs
    // out, while a line right at the cap still reads.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    svc::Socket reader(fds[0]), writer(fds[1]);
    std::thread sender([&] {
        writer.sendAll(std::string(svc::Socket::kMaxLineBytes, 'a')
                       + "\n"
                       + std::string(svc::Socket::kMaxLineBytes + 1,
                                     'b'));
        writer.close();
    });
    std::string line;
    ASSERT_TRUE(reader.readLine(line));
    EXPECT_EQ(line.size(), svc::Socket::kMaxLineBytes);
    EXPECT_FALSE(reader.lineTooLong());
    EXPECT_FALSE(reader.readLine(line));
    EXPECT_TRUE(reader.lineTooLong());
    sender.join();
}

// ---- transport ---------------------------------------------------------

namespace {

int
noDelay(const svc::Socket &sock)
{
    int value = -1;
    socklen_t len = sizeof value;
    if (::getsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &value, &len)
        != 0)
        return -1;
    return value;
}

} // namespace

TEST(ServiceTransport, TcpSocketsSendWithoutDelay)
{
    // Both ends: a reply's last partial segment must not wait for the
    // peer's delayed ACK.
    svc::Listener listener(svc::parseAddress("tcp:127.0.0.1:0"));
    svc::Socket connected = svc::connectTo(listener.address());
    svc::Socket accepted = listener.accept();
    ASSERT_TRUE(accepted.valid());
    EXPECT_EQ(noDelay(connected), 1);
    EXPECT_EQ(noDelay(accepted), 1);
}

TEST(ServiceTransport, UnixSocketsConnectAndServe)
{
    const std::string path =
        (fs::temp_directory_path()
         / ("tdm_svc_unix_" + std::to_string(::getpid()) + ".sock"))
            .string();
    svc::ServerOptions opts;
    opts.engine.threads = 1;
    svc::CampaignServer server(svc::parseAddress("unix:" + path), opts);
    std::thread serving([&] { server.serve(); });

    svc::ServiceClient client("unix:" + path);
    EXPECT_TRUE(client.ping());
    const campaign::CampaignResult rep =
        client.submit(grid("unix", {{"fifo4", point("fifo", 4)}}));
    ASSERT_EQ(rep.jobs.size(), 1u);
    EXPECT_TRUE(rep.allOk());
    EXPECT_EQ(rep.simulated, 1u);

    server.stop();
    serving.join();
}

TEST(ServiceTransport, ClientRefusesPointRunAsAnotherExperiment)
{
    // A server whose spec defaults differ from the client's would
    // rebuild other experiments from the same non-default keys; the
    // digest each point event carries gives it away.
    svc::Listener listener(svc::parseAddress("tcp:127.0.0.1:0"));
    std::thread fake([&] {
        svc::Socket sock = listener.accept();
        std::string line;
        sock.readLine(line);
        sock.sendAll(
            "{\"event\":\"accepted\",\"id\":1,\"name\":\"x\","
            "\"points\":1}\n"
            "{\"event\":\"point\",\"id\":1,\"index\":0,\"total\":1,"
            "\"label\":\"fifo4\",\"digest\":\"0000000000000000\","
            "\"source\":\"simulated\",\"metrics\":{}}\n");
        while (sock.readLine(line)) {
        }
    });
    {
        svc::ServiceClient client(listener.address().display());
        try {
            client.submit(grid("x", {{"fifo4", point("fifo", 4)}}));
            ADD_FAILURE() << "a mismatched digest was accepted";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("0000000000000000"),
                      std::string::npos)
                << e.what();
        }
    }
    fake.join();
}
