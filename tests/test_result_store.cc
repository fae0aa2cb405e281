/**
 * @file
 * Persistent result-store tests: blob format round-trips, schema
 * invalidation, corruption tolerance, restart reloads, and concurrent
 * publish/fetch. The store's contract is "absent or correct, never
 * wrong": any damaged blob degrades to a miss and a re-simulation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cfloat>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "driver/campaign/fingerprint.hh"
#include "driver/service/store.hh"

using namespace tdm;
using namespace tdm::driver;
namespace fs = std::filesystem;

namespace {

/** Fresh per-test directory under the system temp root. */
class StoreDir
{
  public:
    explicit StoreDir(const char *tag)
        : path_(fs::temp_directory_path()
                / (std::string("tdm_store_test_") + tag + "_"
                   + std::to_string(::getpid())))
    {
        fs::remove_all(path_);
    }
    ~StoreDir() { fs::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    fs::path path_;
};

/** A summary exercising awkward values: non-representable doubles,
 *  integers past 2^53, and a metric tree. */
RunSummary
sampleSummary()
{
    RunSummary s;
    s.completed = true;
    s.makespan = (sim::Tick{1} << 61) + 12345; // loses bits as double
    s.timeMs = 0.1 + 0.2;                      // classic 0.30000000000000004
    s.energyJ = 1.0 / 3.0;
    s.edp = 6.02214076e23;
    s.avgWatts = 9.886387899638404;
    s.numTasks = 120;
    s.avgTaskUs = 9567.9434499999988;
    s.machine.completed = true;
    s.machine.makespan = s.makespan;
    s.machine.timeMs = s.timeMs;
    s.machine.tasksExecuted = 120;
    s.machine.dmuAccesses = 5844;
    s.machine.steals = 3;
    s.machine.masterCreationFraction = 0.00028830312207622322;
    s.machine.metrics.set("dmu.tat.hit_rate", 0.81481481481481477);
    s.machine.metrics.set("dmu.tat.hits", 528);
    s.machine.metrics.set("machine.time_ms", s.timeMs);
    return s;
}

const std::string kKey = "machine.cores=8;scheduler=fifo;workload=ch;";

std::string
blobOf(const RunSummary &s, const std::string &key = kKey)
{
    std::ostringstream os;
    service::writeSummaryBlob(os, key, s, 2);
    return os.str();
}

bool
readsBack(const std::string &blob, RunSummary *out = nullptr)
{
    std::istringstream is(blob);
    std::string key;
    RunSummary summary;
    const bool ok = service::readSummaryBlob(is, key, summary, 2);
    if (ok && out)
        *out = summary;
    return ok;
}

/** Payload of a blob: the lines between the header and the checksum. */
std::string
payloadOf(const std::string &blob)
{
    const std::size_t start = blob.find('\n') + 1;
    return blob.substr(start, blob.rfind("sum ") - start);
}

/** A blob around @p payload with a matching checksum, so only the
 *  structural checks can reject it. */
std::string
sealed(const std::string &payload)
{
    return "tdmstore 1 schema 2\n" + payload + "sum " +
           campaign::hex16(campaign::fnv1a64(payload)) + "\nend\n";
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

} // namespace

TEST(ResultStoreBlob, RoundTripPreservesEveryField)
{
    const RunSummary in = sampleSummary();
    std::ostringstream os;
    service::writeSummaryBlob(os, kKey, in, 2);

    std::istringstream is(os.str());
    std::string key;
    RunSummary out;
    ASSERT_TRUE(service::readSummaryBlob(is, key, out, 2));
    EXPECT_EQ(key, kKey);
    EXPECT_EQ(out.completed, in.completed);
    EXPECT_EQ(out.makespan, in.makespan); // u64, not via double
    EXPECT_EQ(out.timeMs, in.timeMs);     // bit-exact double round-trip
    EXPECT_EQ(out.energyJ, in.energyJ);
    EXPECT_EQ(out.edp, in.edp);
    EXPECT_EQ(out.avgWatts, in.avgWatts);
    EXPECT_EQ(out.numTasks, in.numTasks);
    EXPECT_EQ(out.avgTaskUs, in.avgTaskUs);
    EXPECT_EQ(out.machine.tasksExecuted, in.machine.tasksExecuted);
    EXPECT_EQ(out.machine.masterCreationFraction,
              in.machine.masterCreationFraction);
    EXPECT_EQ(out.machine.metrics.entries(),
              in.machine.metrics.entries());

    // Serialization is a pure function of (key, summary): re-writing
    // the decoded summary yields the identical blob. This is what
    // makes concurrent writers of the same key harmless.
    std::ostringstream os2;
    service::writeSummaryBlob(os2, key, out, 2);
    EXPECT_EQ(os.str(), os2.str());
}

TEST(ResultStoreBlob, WrongSchemaVersionRejected)
{
    std::ostringstream os;
    service::writeSummaryBlob(os, kKey, sampleSummary(), 2);
    std::string key;
    RunSummary out;
    std::istringstream is(os.str());
    EXPECT_FALSE(service::readSummaryBlob(is, key, out, 3));
}

TEST(ResultStoreBlob, TruncatedOrTamperedBlobRejected)
{
    const std::string blob = blobOf(sampleSummary());

    // Any truncation must fail: there is always a trailing checksum
    // and end marker to lose. The one exception is a cut at the final
    // '\n': the blob still ends in a whole "end" line, which the
    // std::getline reader accepted (a last line needs no terminator)
    // and the one-pass reader keeps accepting, as it keeps ignoring
    // bytes after the end marker.
    ASSERT_EQ(blob.substr(blob.size() - 5), "\nend\n");
    for (std::size_t cut = 0; cut < blob.size() - 1; ++cut)
        EXPECT_FALSE(readsBack(blob.substr(0, cut)))
            << "accepted a blob truncated to " << cut << " bytes";
    EXPECT_TRUE(readsBack(blob.substr(0, blob.size() - 1)));
    EXPECT_TRUE(readsBack(blob + "trailing bytes\n"));

    // Flipping one payload character breaks the checksum.
    std::string tampered = blob;
    const std::size_t pos = tampered.find("makespan");
    ASSERT_NE(pos, std::string::npos);
    tampered[pos] = 'M';
    EXPECT_FALSE(readsBack(tampered));

    // So does any seeded single-byte flip after the header line: the
    // payload is covered by the checksum, the checksum line and the
    // end marker by exact comparison.
    const std::size_t first = blob.find('\n') + 1;
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 2000; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const std::size_t at =
            first + static_cast<std::size_t>(state >> 33) %
                        (blob.size() - first);
        const auto flip = static_cast<char>(1 + (state >> 20) % 255);
        std::string bad = blob;
        bad[at] = static_cast<char>(bad[at] ^ flip);
        EXPECT_FALSE(readsBack(bad))
            << "accepted byte " << at << " xor " << (flip & 0xff);
    }

    // Garbage from byte zero.
    EXPECT_FALSE(readsBack("these are not the blobs\nyou seek\n"));
}

TEST(ResultStoreBlob, FieldSetAndMetricCountEnforced)
{
    const std::string payload = payloadOf(blobOf(sampleSummary()));
    ASSERT_TRUE(readsBack(sealed(payload))); // the helper itself

    // The whole line starting with prefix, '\n' included.
    const auto lineOf = [&](const std::string &prefix) {
        const std::size_t at = ("\n" + payload).find("\n" + prefix);
        return payload.substr(at, payload.find('\n', at) + 1 - at);
    };
    const auto without = [&](const std::string &line) {
        std::string p = payload;
        p.erase(p.find(line), line.size());
        return p;
    };
    const auto before = [&](const std::string &line,
                            const std::string &extra) {
        std::string p = payload;
        p.insert(p.find(line), extra);
        return p;
    };
    const std::string edp = lineOf("f edp ");
    const std::string key = lineOf("key ");
    const std::string count = lineOf("metrics ");
    const std::string metric = lineOf("m dmu.tat.hits ");
    ASSERT_EQ(count, "metrics 3\n");
    const auto counted = [&](const char *line) {
        std::string p = payload;
        p.replace(p.find(count), count.size(), line);
        return p;
    };

    // Missing, repeated, unknown and valueless fields.
    EXPECT_FALSE(readsBack(sealed(without(edp))));
    EXPECT_FALSE(readsBack(sealed(before(edp, edp))));
    EXPECT_FALSE(readsBack(sealed(before(edp, "f edp_total 1\n"))));
    EXPECT_FALSE(readsBack(sealed(before(edp, "f edp\n"))));
    EXPECT_FALSE(readsBack(sealed(without(key))));
    EXPECT_FALSE(readsBack(sealed(before(edp, key))));
    // Metric count above and below the metric lines.
    EXPECT_FALSE(readsBack(sealed(counted("metrics 4\n"))));
    EXPECT_FALSE(readsBack(sealed(counted("metrics 2\n"))));
    EXPECT_FALSE(readsBack(sealed(counted("metrics\n"))));
    EXPECT_FALSE(readsBack(sealed(without(metric))));
    // Lines out of their section, and unknown tags.
    EXPECT_FALSE(readsBack(sealed(before(count, metric))));
    EXPECT_FALSE(readsBack(sealed(before(count, count))));
    EXPECT_FALSE(readsBack(sealed(without(edp) + edp)));
    EXPECT_FALSE(readsBack(sealed(without(key) + key)));
    EXPECT_FALSE(readsBack(sealed(payload + "x 1\n")));
    EXPECT_FALSE(readsBack(sealed(payload + "\n")));

    // A repeated metric key counts as a metric line and keeps the last
    // value, as the old reader's map assignment did.
    std::string dup = counted("metrics 4\n");
    dup.insert(dup.find(metric) + metric.size(), "m dmu.tat.hits 9\n");
    RunSummary out;
    ASSERT_TRUE(readsBack(sealed(dup), &out));
    EXPECT_EQ(out.metrics().size(), 3u);
    EXPECT_EQ(out.metrics().at("dmu.tat.hits"), 9.0);
}

TEST(ResultStoreBlob, ExtremeDoublesRoundTripBitExactly)
{
    const double values[] = {
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        DBL_MIN - std::numeric_limits<double>::denorm_min(), // top subnormal
        DBL_MIN,
        DBL_MAX,
        -DBL_MAX,
        -0.0,
    };
    RunSummary in = sampleSummary();
    in.machine.metrics = sim::MetricSet{};
    for (std::size_t i = 0; i < std::size(values); ++i)
        in.machine.metrics.set("x." + std::to_string(10 + i), values[i]);
    in.timeMs = std::numeric_limits<double>::denorm_min();
    in.edp = std::numeric_limits<double>::infinity();
    in.machine.avgWatts = -std::numeric_limits<double>::quiet_NaN();

    RunSummary out;
    ASSERT_TRUE(readsBack(blobOf(in), &out));
    ASSERT_EQ(out.metrics().size(), std::size(values));
    auto it = out.metrics().entries().begin();
    for (std::size_t i = 0; i < std::size(values); ++i, ++it)
        EXPECT_EQ(bitsOf(it->second), bitsOf(values[i])) << it->first;
    EXPECT_EQ(bitsOf(out.timeMs), bitsOf(in.timeMs));
    EXPECT_EQ(bitsOf(out.edp), bitsOf(in.edp));
    EXPECT_EQ(bitsOf(out.machine.avgWatts), bitsOf(in.machine.avgWatts));
    EXPECT_EQ(blobOf(out), blobOf(in));
}

TEST(ResultStore, PublishFetchAndRestartReload)
{
    StoreDir dir("restart");
    const RunSummary in = sampleSummary();
    {
        service::ResultStore store(dir.str());
        EXPECT_EQ(store.size(), 0u);
        EXPECT_FALSE(store.fetch(kKey).has_value());
        EXPECT_EQ(store.misses(), 1u);

        store.publish(kKey, in);
        EXPECT_EQ(store.size(), 1u);
        EXPECT_EQ(store.stores(), 1u);
        auto hit = store.fetch(kKey);
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(hit->makespan, in.makespan);
        EXPECT_EQ(hit->timeMs, in.timeMs);

        // Re-publishing an indexed key is a no-op, not a rewrite.
        store.publish(kKey, in);
        EXPECT_EQ(store.stores(), 1u);
    }
    // A new instance over the same directory rebuilds the index from
    // the blobs alone.
    service::ResultStore reopened(dir.str());
    EXPECT_EQ(reopened.size(), 1u);
    auto hit = reopened.fetch(kKey);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->makespan, in.makespan);
    EXPECT_EQ(hit->machine.metrics.entries(),
              in.machine.metrics.entries());
}

TEST(ResultStore, SchemaBumpInvalidatesEverything)
{
    StoreDir dir("schema");
    {
        service::ResultStore v2(dir.str(), 2);
        v2.publish(kKey, sampleSummary());
        EXPECT_EQ(v2.size(), 1u);
    }
    // A store opened under the next schema sees an empty universe —
    // blobs live in a different version directory by construction.
    service::ResultStore v3(dir.str(), 3);
    EXPECT_EQ(v3.size(), 0u);
    EXPECT_FALSE(v3.fetch(kKey).has_value());
    // The old generation's blobs are untouched (rollback-safe).
    service::ResultStore v2again(dir.str(), 2);
    EXPECT_EQ(v2again.size(), 1u);
    EXPECT_TRUE(v2again.fetch(kKey).has_value());
}

TEST(ResultStore, CorruptBlobDegradesToMiss)
{
    StoreDir dir("corrupt");
    service::ResultStore writer(dir.str());
    writer.publish(kKey, sampleSummary());
    const std::string path = writer.pathForKey(kKey);
    ASSERT_TRUE(fs::exists(path));
    {
        std::ofstream out(path, std::ios::trunc);
        out << "tdmstore 1 schema 2\nnope\n";
    }
    // A fresh instance indexes the damaged blob (the scan is
    // name-based), then discovers the damage on fetch: miss, counted
    // as corrupt, and dropped from the index so later fetches are
    // plain misses that a re-publish can heal.
    service::ResultStore store(dir.str());
    EXPECT_EQ(store.size(), 1u);
    EXPECT_FALSE(store.fetch(kKey).has_value());
    EXPECT_EQ(store.corrupt(), 1u);
    EXPECT_EQ(store.size(), 0u);
    EXPECT_FALSE(store.fetch(kKey).has_value());
    EXPECT_EQ(store.corrupt(), 1u);

    store.publish(kKey, sampleSummary());
    EXPECT_TRUE(store.fetch(kKey).has_value());
}

TEST(ResultStore, DigestCollisionWithDifferentKeyIsMiss)
{
    StoreDir dir("collision");
    service::ResultStore store(dir.str());
    // Force a blob whose digest-derived name matches kKey but whose
    // stored key differs — what a real 64-bit digest collision would
    // produce. The stored-key check must refuse to serve it.
    {
        std::ofstream out(store.pathForKey(kKey), std::ios::trunc);
        service::writeSummaryBlob(out, "other=spec;", sampleSummary(),
                                  2);
    }
    service::ResultStore reopened(dir.str());
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_FALSE(reopened.fetch(kKey).has_value());
    // Not corruption — the blob is intact, just not ours.
    EXPECT_EQ(reopened.corrupt(), 0u);
}

TEST(ResultStore, ConcurrentPublishFetchHammer)
{
    // 8 threads x 600 ops over 16 keys, mixing publishes and fetches
    // of the same keys (same bytes per key, so racing writers are
    // benign by design). Arithmetic pins that every fetch was either
    // a faithful hit or a clean miss.
    constexpr unsigned kThreads = 8;
    constexpr unsigned kOps = 600;
    constexpr unsigned kKeys = 16;

    StoreDir dir("hammer");
    service::ResultStore store(dir.str());

    std::vector<RunSummary> summaries(kKeys);
    for (unsigned k = 0; k < kKeys; ++k) {
        summaries[k] = sampleSummary();
        summaries[k].makespan = 1000 + k;
    }
    auto keyOf = [](unsigned k) {
        return "cores=" + std::to_string(k) + ";";
    };

    std::vector<std::thread> pool;
    pool.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            for (unsigned i = 0; i < kOps; ++i) {
                const unsigned k = (t * 5 + i) % kKeys;
                if (i % 3 == 0) {
                    store.publish(keyOf(k), summaries[k]);
                } else {
                    auto hit = store.fetch(keyOf(k));
                    if (hit) {
                        EXPECT_EQ(hit->makespan, 1000 + k);
                    }
                }
            }
        });
    }
    for (std::thread &t : pool)
        t.join();

    EXPECT_EQ(store.corrupt(), 0u);
    EXPECT_EQ(store.size(), kKeys);
    for (unsigned k = 0; k < kKeys; ++k) {
        auto hit = store.fetch(keyOf(k));
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(hit->makespan, 1000 + k);
    }
}

TEST(ResultStore, ConcurrentFetchPublishAndCorruptDrop)
{
    // Fetches read and parse outside the store lock while publishers
    // add new keys (both publishing every key, so writers of one key
    // race) and one indexed blob is damaged on disk. Every fetch is a
    // whole, correct hit or a clean miss; the counters add up; and the
    // damaged blob is dropped exactly once, even though a publish
    // heals it while fetches that read the damaged bytes may still be
    // in flight.
    constexpr unsigned kOld = 8;
    constexpr unsigned kNew = 24;
    constexpr unsigned kBad = kOld + kNew; // index of the damaged key
    constexpr unsigned kFetchers = 4;
    constexpr unsigned kRounds = 30;

    StoreDir dir("race");
    std::vector<RunSummary> summaries(kBad + 1);
    for (unsigned k = 0; k <= kBad; ++k) {
        summaries[k] = sampleSummary();
        summaries[k].makespan = 5000 + k;
        summaries[k].machine.metrics.set("key.index", k);
    }
    auto keyOf = [](unsigned k) {
        return "race=" + std::to_string(k) + ";";
    };
    {
        service::ResultStore writer(dir.str());
        for (unsigned k = 0; k < kOld; ++k)
            writer.publish(keyOf(k), summaries[k]);
        writer.publish(keyOf(kBad), summaries[kBad]);
        std::ofstream out(writer.pathForKey(keyOf(kBad)),
                          std::ios::trunc);
        out << "tdmstore 1 schema 2\ngarbage\n";
    }
    service::ResultStore store(dir.str());
    ASSERT_EQ(store.size(), kOld + 1);

    std::atomic<std::uint64_t> fetches{0};
    std::atomic<std::uint64_t> hits{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kFetchers; ++t) {
        pool.emplace_back([&, t] {
            for (unsigned r = 0; r < kRounds; ++r) {
                for (unsigned i = 0; i <= kBad; ++i) {
                    const unsigned k = (i + t * 7) % (kBad + 1);
                    const auto got = store.fetch(keyOf(k));
                    ++fetches;
                    if (!got)
                        continue;
                    ++hits;
                    EXPECT_EQ(got->makespan, 5000 + k);
                    EXPECT_EQ(got->metrics().entries(),
                              summaries[k].metrics().entries());
                }
            }
        });
    }
    for (unsigned t = 0; t < 2; ++t) {
        pool.emplace_back([&, t] {
            for (unsigned i = 0; i < kNew; ++i) {
                const unsigned k = kOld + (t == 0 ? i : kNew - 1 - i);
                store.publish(keyOf(k), summaries[k]);
            }
        });
    }
    // The healer: once a fetch has dropped the damaged blob, publish
    // it again while the fetchers keep going.
    pool.emplace_back([&] {
        while (store.corrupt() == 0)
            std::this_thread::yield();
        store.publish(keyOf(kBad), summaries[kBad]);
    });
    for (std::thread &t : pool)
        t.join();

    EXPECT_EQ(store.corrupt(), 1u);
    EXPECT_EQ(store.hits() + store.misses(), fetches.load());
    EXPECT_EQ(store.hits(), hits.load());
    EXPECT_EQ(store.stores(), kNew + 1);
    EXPECT_EQ(store.size(), kBad + 1);
    for (unsigned k = 0; k <= kBad; ++k) {
        const auto got = store.fetch(keyOf(k));
        ASSERT_TRUE(got.has_value()) << k;
        EXPECT_EQ(got->metrics().entries(),
                  summaries[k].metrics().entries());
    }
}
