/**
 * @file
 * Fuzz-style robustness tests for the service's parsers of outside
 * bytes: the line protocol (parseJson / parseRequest, plus
 * buildCampaign on whatever parses), the dashboard's HttpParser, the
 * client's point-event decoder and the result store's blob reader.
 *
 * All of them read bytes from a socket or a disk, so their contract is
 * a clean parse or a clean error — never a crash, an over-read, or a
 * stray exception; a store blob is moreover read back correctly or not
 * at all. The corpus is deterministic mutations (byte flips,
 * truncations, splices, deletions) of valid ping, status and submit
 * lines, of valid GET heads, and of a real point event and store blob,
 * from a fixed-seed xorshift generator so a failure reproduces
 * everywhere. CI runs it under ASan/UBSan, which turns any over-read
 * or bad index into a failure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "driver/campaign/fingerprint.hh"
#include "driver/service/http_server.hh"
#include "driver/service/protocol.hh"
#include "driver/service/store.hh"
#include "driver/spec/spec.hh"

using namespace tdm::driver;
namespace svc = tdm::driver::service;

namespace {

/** Deterministic xorshift64* stream; fixed seed, same corpus forever. */
class FuzzRng
{
  public:
    explicit FuzzRng(std::uint64_t seed) : state_(seed | 1) {}

    std::uint64_t
    next()
    {
        state_ ^= state_ >> 12;
        state_ ^= state_ << 25;
        state_ ^= state_ >> 27;
        return state_ * 0x2545f4914f6cdd1dull;
    }

    std::size_t pick(std::size_t n) { return next() % n; }

  private:
    std::uint64_t state_;
};

/** Apply 1-4 random edits to @p text, drawing flipped bytes from
 *  @p garbage (never returns an empty string). */
std::string
mutate(std::string text, FuzzRng &rng, const std::string &garbage)
{
    const int edits = 1 + static_cast<int>(rng.pick(4));
    for (int e = 0; e < edits; ++e) {
        switch (rng.pick(4)) {
        case 0: // flip one byte to a syntax-relevant character
            text[rng.pick(text.size())] = garbage[rng.pick(garbage.size())];
            break;
        case 1: // truncate
            text.resize(rng.pick(text.size()) + 1);
            break;
        case 2: // splice a random slice of the text into itself
        {
            const std::size_t from = rng.pick(text.size());
            const std::string slice =
                text.substr(from, rng.pick(text.size() - from) + 1);
            text.insert(rng.pick(text.size()), slice);
            break;
        }
        default: // delete a slice
        {
            const std::size_t from = rng.pick(text.size());
            text.erase(from, rng.pick(text.size() - from) + 1);
            if (text.empty())
                text.push_back(' ');
            break;
        }
        }
    }
    return text;
}

const std::vector<std::string> kValidLines = {
    R"({"op":"ping"})",
    R"({"op":"status"})",
    R"({"op":"submit","name":"fz","metrics":"dmu.*",)"
    R"("set":{"runtime":"tdm"},)"
    R"("campaign":"axis machine.cores = 8, 16\nset scheduler = age\n"})",
    R"({"op":"submit","name":"fz","points":[{"label":"a","spec":)"
    R"({"workload":"cholesky","machine.cores":"8"}},)"
    R"({"spec":{"runtime":"sw","workload.granularity":"262144"}}]})",
};

/**
 * The protocol contract: parseRequest returns true or false with a
 * message; a parsed submit either builds or throws SpecError. Returns
 * true when the line parsed as a request.
 */
bool
protocolMustNotCrash(const std::string &line)
{
    svc::JsonValue json;
    std::string error;
    (void)svc::parseJson(line, json, error);

    svc::Request req;
    error.clear();
    if (!svc::parseRequest(line, req, error)) {
        EXPECT_FALSE(error.empty()) << line;
        return false;
    }
    if (req.op == svc::RequestOp::Submit) {
        try {
            (void)svc::buildCampaign(req.submit);
        } catch (const spec::SpecError &) {
            // rejected cleanly: fine
        }
    }
    return true;
}

const std::vector<std::string> kValidHeads = {
    "GET / HTTP/1.1\r\nHost: localhost\r\n\r\n",
    "GET /api/status HTTP/1.1\r\nHost: 127.0.0.1:8080\r\n"
    "Accept: application/json\r\n\r\n",
    "GET /api/campaign/1/points?metrics=dmu.%2A&x=a+b HTTP/1.0\n"
    "User-Agent: fuzz\n\n",
    "HEAD /api/events HTTP/1.1\r\nAccept: text/event-stream\r\n"
    "Last-Event-ID: 7\r\n\r\n",
};

/**
 * The HTTP contract: feeding a head (in one piece, and again split at
 * an arbitrary point) ends in NeedMore, Done, or Error with a 4xx/5xx
 * status — the same state either way. Returns true on Done.
 */
bool
httpMustNotCrash(const std::string &head, std::size_t split)
{
    svc::HttpParser whole;
    whole.feed(head.data(), head.size());

    svc::HttpParser pieces;
    split = std::min(split, head.size());
    pieces.feed(head.data(), split);
    pieces.feed(head.data() + split, head.size() - split);
    EXPECT_EQ(whole.state(), pieces.state()) << head;

    if (whole.state() == svc::HttpParser::State::Error) {
        EXPECT_GE(whole.status(), 400) << head;
        EXPECT_LT(whole.status(), 600) << head;
        EXPECT_FALSE(whole.reason().empty()) << head;
    }
    if (whole.state() != svc::HttpParser::State::Done)
        return false;
    EXPECT_FALSE(whole.request().path.empty()) << head;
    return true;
}

/** One real simulated point (dedup on the TDM runtime). */
const campaign::JobResult &
realJob()
{
    static const campaign::JobResult job = [] {
        Experiment exp;
        spec::applyKey(exp, "workload", "dedup");
        spec::applyKey(exp, "runtime", "tdm");
        campaign::JobResult j;
        j.label = "dedup/tdm";
        j.digest = campaign::fingerprintDigest(exp);
        j.summary = run(exp);
        return j;
    }();
    return job;
}

std::string
realPointEvent()
{
    std::string line;
    svc::writePoint(line, 1, realJob(), 0, 1, "");
    line.pop_back(); // the '\n'
    return line;
}

const std::string kBlobKey = "workload=dedup;runtime=tdm;";

std::string
realBlob()
{
    std::ostringstream os;
    svc::writeSummaryBlob(os, kBlobKey, realJob().summary, 2);
    return os.str();
}

/** The decoder contract: parseJson + decodePointEvent return true or
 *  false. Returns true when the event decoded. */
bool
pointEventMustNotCrash(const std::string &line)
{
    svc::JsonValue event;
    std::string error;
    campaign::JobResult job;
    std::size_t index = 0, total = 0;
    return svc::parseJson(line, event, error) &&
           svc::decodePointEvent(event, job, index, total);
}

/** The store contract, "absent or correct, never wrong": a blob that
 *  reads back at all reads back as the original key and summary.
 *  Returns true when it was accepted. */
bool
blobMustReadBackWholeOrNot(const std::string &blob)
{
    std::istringstream is(blob);
    std::string key;
    RunSummary summary;
    if (!svc::readSummaryBlob(is, key, summary, 2))
        return false;
    std::ostringstream os;
    svc::writeSummaryBlob(os, key, summary, 2);
    EXPECT_EQ(os.str(), realBlob());
    return true;
}

} // namespace

TEST(ServiceFuzz, SeedCorpusIsValid)
{
    // Mutating garbage would only ever test the error path.
    for (const std::string &line : kValidLines)
        EXPECT_TRUE(protocolMustNotCrash(line)) << line;
    for (const std::string &head : kValidHeads)
        EXPECT_TRUE(httpMustNotCrash(head, head.size() / 2)) << head;
    EXPECT_TRUE(pointEventMustNotCrash(realPointEvent()));
    EXPECT_TRUE(blobMustReadBackWholeOrNot(realBlob()));
}

TEST(ServiceFuzz, MutatedProtocolLines)
{
    FuzzRng rng(0x5e7f1ce5);
    const char bytes[] = "{}[]\":,\\u0123456789eE+-.tfn \t\0\x80\xff";
    const std::string garbage(bytes, sizeof bytes - 1);
    int parsedOk = 0;
    constexpr int kRounds = 3000;
    for (int round = 0; round < kRounds; ++round) {
        const std::string &seed = kValidLines[rng.pick(kValidLines.size())];
        if (protocolMustNotCrash(mutate(seed, rng, garbage)))
            ++parsedOk;
    }
    // Both outcomes must occur, or the fuzz is one-sided.
    EXPECT_GT(parsedOk, 0);
    EXPECT_LT(parsedOk, kRounds);
}

TEST(ServiceFuzz, MutatedHttpHeads)
{
    FuzzRng rng(0xd15ea5e);
    const char bytes[] = " \r\n:/?%&=+HTP1.0\t\0\x7f\xff";
    const std::string garbage(bytes, sizeof bytes - 1);
    int parsedOk = 0;
    constexpr int kRounds = 3000;
    for (int round = 0; round < kRounds; ++round) {
        const std::string &seed = kValidHeads[rng.pick(kValidHeads.size())];
        const std::string head = mutate(seed, rng, garbage);
        if (httpMustNotCrash(head, rng.pick(head.size() + 1)))
            ++parsedOk;
    }
    EXPECT_GT(parsedOk, 0);
    EXPECT_LT(parsedOk, kRounds);
}

TEST(ServiceFuzz, MutatedPointEvents)
{
    FuzzRng rng(0x90171e7);
    const char bytes[] = "{}[]\":,.0123456789eE+-naulfs \0\x80\xff";
    const std::string garbage(bytes, sizeof bytes - 1);
    const std::string seed = realPointEvent();
    int decodedOk = 0;
    constexpr int kRounds = 2000;
    for (int round = 0; round < kRounds; ++round)
        if (pointEventMustNotCrash(mutate(seed, rng, garbage)))
            ++decodedOk;
    EXPECT_GT(decodedOk, 0);
    EXPECT_LT(decodedOk, kRounds);
}

TEST(ServiceFuzz, MutatedStoreBlobs)
{
    // The checksum covers the payload, so nearly every mutation is
    // refused; the ones that read back must read back unchanged.
    FuzzRng rng(0xb10b5);
    const char bytes[] = " \t\n.0123456789abcdefmsumkeyend\0\x80\xff";
    const std::string garbage(bytes, sizeof bytes - 1);
    const std::string seed = realBlob();
    int accepted = 0;
    constexpr int kRounds = 2000;
    for (int round = 0; round < kRounds; ++round)
        if (blobMustReadBackWholeOrNot(mutate(seed, rng, garbage)))
            ++accepted;
    EXPECT_LT(accepted, kRounds);
}

TEST(ServiceFuzz, HostileProtocolLines)
{
    // Deep nesting, huge tokens, lone surrogates and embedded NULs —
    // shapes byte mutations of the seeds rarely reach. (Hostile HTTP
    // heads have their own cases in test_http.)
    const std::vector<std::string> lines = {
        "",
        std::string(100000, '['),
        std::string(100000, '{'),
        R"({"op":"ping")" + std::string(70000, ' ') + "}",
        R"({"op":"\ud800"})",
        R"({"op":"\udc00\ud800"})",
        R"({"op":"submit","points":)" + std::string(5000, '['),
        R"({"op":"submit","points":[{"spec":{"machine.cores":1e999}}]})",
        R"({"op":"submit","campaign":"axis machine.cores = )"
            + std::string(4096, ',') + R"("})",
        std::string("{\"op\":\"pi\0ng\"}", 15),
        "1e99999999999999999999",
        "-",
        "\"\\u12\"",
    };
    for (const std::string &line : lines)
        protocolMustNotCrash(line);
}
