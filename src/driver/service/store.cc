#include "driver/service/store.hh"

#include <array>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <tuple>
#include <type_traits>

#include <fcntl.h>
#include <unistd.h>

#include "driver/campaign/fingerprint.hh"
#include "driver/report/json_writer.hh"
#include "sim/logging.hh"

namespace fs = std::filesystem;

namespace tdm::driver::service {

namespace {

constexpr std::string_view kMagic = "tdmstore";
constexpr unsigned kFormatVersion = 1;

/** The integers a blob carries wider than RunSummary keeps them: two
 *  completion flags and the 32-bit task count travel as u64 fields. */
struct WideFields
{
    std::uint64_t completed = 0;
    std::uint64_t mCompleted = 0;
    std::uint64_t numTasks = 0;
};

/**
 * The blob's scalar fields, one row each, in the order the writer
 * emits them. Each row points into @p s (or @p w), so the writer reads
 * and the reader assigns through the same table; a const summary
 * yields const pointers. Every field must appear exactly once in a
 * blob or the load is rejected.
 */
template <class Summary, class Wide>
auto
fieldTable(Summary &s, Wide &w)
{
    constexpr bool kConst = std::is_const_v<Summary>;
    using U64 = std::conditional_t<kConst, const std::uint64_t,
                                   std::uint64_t>;
    using F64 = std::conditional_t<kConst, const double, double>;
    struct Row
    {
        std::string_view name;
        U64 *u64; ///< exactly one of u64 and f64 is set
        F64 *f64;
    };
    const auto u = [](std::string_view n, U64 &v) {
        return Row{n, &v, nullptr};
    };
    const auto d = [](std::string_view n, F64 &v) {
        return Row{n, nullptr, &v};
    };
    auto &m = s.machine;
    return std::array{
        u("completed", w.completed),
        u("makespan", s.makespan),
        d("time_ms", s.timeMs),
        d("energy_j", s.energyJ),
        d("edp", s.edp),
        d("avg_watts", s.avgWatts),
        u("num_tasks", w.numTasks),
        d("avg_task_us", s.avgTaskUs),
        u("m.completed", w.mCompleted),
        u("m.makespan", m.makespan),
        d("m.time_ms", m.timeMs),
        u("m.master.deps", m.master.deps),
        u("m.master.sched", m.master.sched),
        u("m.master.exec", m.master.exec),
        u("m.master.idle", m.master.idle),
        u("m.workers.deps", m.workersTotal.deps),
        u("m.workers.sched", m.workersTotal.sched),
        u("m.workers.exec", m.workersTotal.exec),
        u("m.workers.idle", m.workersTotal.idle),
        u("m.chip.deps", m.chipTotal.deps),
        u("m.chip.sched", m.chipTotal.sched),
        u("m.chip.exec", m.chipTotal.exec),
        u("m.chip.idle", m.chipTotal.idle),
        d("m.energy_j", m.energyJ),
        d("m.edp", m.edp),
        d("m.avg_watts", m.avgWatts),
        u("m.tasks_executed", m.tasksExecuted),
        u("m.dmu_blocked_ops", m.dmuBlockedOps),
        u("m.dmu_accesses", m.dmuAccesses),
        d("m.dat_avg_occupied_sets", m.datAvgOccupiedSets),
        u("m.steals", m.steals),
        d("m.master_creation_fraction", m.masterCreationFraction),
    };
}

/** Append one blob to @p out (see writeSummaryBlob). */
void
appendSummaryBlob(std::string &out, std::string_view key,
                  const RunSummary &summary, unsigned schema_version)
{
    out += kMagic;
    out += ' ';
    out += std::to_string(kFormatVersion);
    out += " schema ";
    out += std::to_string(schema_version);
    out += '\n';
    // The payload runs from here to the checksum line, which covers it.
    const std::size_t payloadStart = out.size();
    out += "key ";
    out += key;
    out += '\n';

    const WideFields w{summary.completed ? 1u : 0u,
                       summary.machine.completed ? 1u : 0u,
                       summary.numTasks};
    char num[20];
    for (const auto &row : fieldTable(summary, w)) {
        out += "f ";
        out += row.name;
        out += ' ';
        // Doubles use the exports' 17-digit formatter: they parse back
        // bit-exactly, and "inf"/"nan" survive the round trip.
        if (row.u64)
            out.append(num, std::to_chars(num, num + sizeof num,
                                          *row.u64).ptr);
        else
            report::appendDouble(out, *row.f64);
        out += '\n';
    }

    const sim::MetricSet &metrics = summary.metrics();
    out += "metrics ";
    out += std::to_string(metrics.size());
    out += '\n';
    for (const auto &[k, v] : metrics.entries()) {
        out += "m ";
        out += k;
        out += ' ';
        report::appendDouble(out, v);
        out += '\n';
    }

    const std::string sum = campaign::hex16(
        campaign::fnv1a64(std::string_view(out).substr(payloadStart)));
    out += "sum ";
    out += sum;
    out += "\nend\n";
}

/** The characters operator>> treats as separators (classic locale). */
bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' ||
           c == '\f' || c == '\r';
}

/** Next whitespace-delimited token of @p line at or after @p pos (what
 *  operator>> into a string extracts); empty at the end of the line. */
std::string_view
nextToken(std::string_view line, std::size_t &pos)
{
    while (pos < line.size() && isSpace(line[pos]))
        ++pos;
    const std::size_t start = pos;
    while (pos < line.size() && !isSpace(line[pos]))
        ++pos;
    return line.substr(start, pos - start);
}

/** A header version or a metric count: plain decimal digits only. */
bool
parseCount(std::string_view tok, std::uint64_t &out)
{
    const char *last = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), last, out);
    return ec == std::errc{} && ptr == last;
}

/**
 * A field or metric value, @p T being std::uint64_t or double.
 * from_chars takes the plain numbers the writer emits; whatever it
 * declines (a sign, a hex float, an out-of-range value) goes on to
 * strtoull/strtod over the token's C string, so every spelling those
 * accept still reads.
 */
template <class T>
bool
parseValue(std::string_view tok, T &out)
{
    const char *last = tok.data() + tok.size();
    const auto [ptr, ec] = std::from_chars(tok.data(), last, out);
    if (ec == std::errc{} && ptr == last)
        return true;
    const std::string text(tok);
    char *end = nullptr;
    errno = 0;
    if constexpr (std::is_same_v<T, double>) {
        out = std::strtod(text.c_str(), &end);
    } else {
        out = std::strtoull(text.c_str(), &end, 10);
        if (errno != 0)
            return false; // out of range
    }
    return end != text.c_str() && *end == '\0';
}

/**
 * Parse one blob held in memory, in one pass over its lines. On
 * success @p key_out views the key inside @p bytes. See
 * readSummaryBlob for what is rejected.
 */
bool
parseSummaryBlob(std::string_view bytes, std::string_view &key_out,
                 RunSummary &summary_out, unsigned schema_version)
{
    std::size_t pos = 0;
    // The next line without its '\n'. Like std::getline, the last line
    // needs no '\n', and nothing after a final '\n' is a line.
    const auto nextLine = [&](std::string_view &line) {
        if (pos >= bytes.size())
            return false;
        const std::size_t nl = bytes.find('\n', pos);
        const std::size_t end = nl == std::string_view::npos ? bytes.size()
                                                             : nl;
        line = bytes.substr(pos, end - pos);
        pos = end == bytes.size() ? end : end + 1;
        return true;
    };

    std::string_view line;
    if (!nextLine(line))
        return false;
    {
        std::size_t p = 0;
        std::uint64_t format = 0, schema = 0;
        if (nextToken(line, p) != kMagic ||
            !parseCount(nextToken(line, p), format) ||
            format != kFormatVersion || nextToken(line, p) != "schema" ||
            !parseCount(nextToken(line, p), schema) ||
            schema != schema_version)
            return false;
    }

    const std::size_t payloadStart = pos;
    RunSummary s;
    WideFields w;
    const auto fields = fieldTable(s, w);
    constexpr std::size_t kFields = std::tuple_size_v<decltype(fields)>;
    static_assert(kFields < 64, "one bit per field in `seen`");
    std::uint64_t seen = 0; // bit i: fields[i] assigned
    std::string_view key;
    bool haveKey = false;
    std::uint64_t metricsExpected = 0, metricsSeen = 0;
    bool inMetrics = false;

    for (;;) {
        const std::size_t lineStart = pos;
        if (!nextLine(line))
            return false; // truncated: no sum/end trailer
        if (line.substr(0, 4) == "sum ") {
            if (line.substr(4) !=
                campaign::hex16(campaign::fnv1a64(bytes.substr(
                    payloadStart, lineStart - payloadStart))))
                return false;
            if (!haveKey || seen != (std::uint64_t{1} << kFields) - 1 ||
                metricsSeen != metricsExpected)
                return false;
            if (!nextLine(line) || line != "end")
                return false;
            if (w.numTasks > UINT32_MAX)
                return false;
            s.completed = w.completed != 0;
            s.machine.completed = w.mCompleted != 0;
            s.numTasks = static_cast<std::uint32_t>(w.numTasks);
            key_out = key;
            summary_out = std::move(s);
            return true;
        }

        std::size_t p = 0;
        const std::string_view tag = nextToken(line, p);
        if (tag == "m") {
            const std::string_view name = nextToken(line, p);
            const std::string_view value = nextToken(line, p);
            double v = 0.0;
            if (!inMetrics || value.empty() || !parseValue(value, v))
                return false;
            s.machine.metrics.set(std::string(name), v);
            ++metricsSeen;
        } else if (tag == "f") {
            const std::string_view name = nextToken(line, p);
            const std::string_view value = nextToken(line, p);
            if (inMetrics || value.empty())
                return false;
            std::size_t i = 0;
            while (i < kFields && fields[i].name != name)
                ++i;
            const std::uint64_t bit = std::uint64_t{1} << i;
            if (i == kFields || (seen & bit) != 0)
                return false; // unknown or repeated field
            if (fields[i].u64 ? !parseValue(value, *fields[i].u64)
                              : !parseValue(value, *fields[i].f64))
                return false;
            seen |= bit;
        } else if (tag == "key") {
            if (haveKey || inMetrics)
                return false;
            // The key is the rest of the line after the first space,
            // spaces included.
            const std::size_t sp = line.find(' ');
            if (sp == std::string_view::npos || sp + 1 >= line.size())
                return false;
            key = line.substr(sp + 1);
            haveKey = true;
        } else if (tag == "metrics") {
            if (inMetrics ||
                !parseCount(nextToken(line, p), metricsExpected))
                return false;
            inMetrics = true;
        } else {
            return false;
        }
    }
}

/** Whole contents of the file at @p path; false when it cannot be
 *  opened or read. */
bool
readWholeFile(const std::string &path, std::string &out)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    out.clear();
    char buf[16384];
    ssize_t n = 0;
    while ((n = ::read(fd, buf, sizeof buf)) > 0 || (n < 0 && errno == EINTR))
        if (n > 0)
            out.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return n == 0;
}

/** 16 lowercase hex digits: the only names the store browser reads. */
bool
isDigest(const std::string &digest)
{
    return digest.size() == 16 &&
           digest.find_first_not_of("0123456789abcdef") ==
               std::string::npos;
}

} // namespace

void
writeSummaryBlob(std::ostream &os, const std::string &key,
                 const RunSummary &summary, unsigned schema_version)
{
    std::string out;
    appendSummaryBlob(out, key, summary, schema_version);
    os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

bool
readSummaryBlob(std::istream &is, std::string &key_out,
                RunSummary &summary_out, unsigned schema_version)
{
    const std::string bytes{std::istreambuf_iterator<char>(is),
                            std::istreambuf_iterator<char>()};
    std::string_view key;
    if (!parseSummaryBlob(bytes, key, summary_out, schema_version))
        return false;
    key_out.assign(key);
    return true;
}

ResultStore::ResultStore(const std::string &dir,
                         unsigned schema_version)
    : dir_(dir), schemaVersion_(schema_version)
{
    std::string vdir = "v";
    vdir += std::to_string(schemaVersion_);
    versionDir_ = (fs::path(dir_) / vdir).string();
    std::error_code ec;
    fs::create_directories(versionDir_, ec);
    if (ec || !fs::is_directory(versionDir_))
        throw std::runtime_error("result store: cannot create '" +
                                 versionDir_ + "': " + ec.message());
    scanIndex();
}

void
ResultStore::scanIndex()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::error_code ec;
    for (fs::directory_iterator it(versionDir_, ec), end;
         !ec && it != end; it.increment(ec)) {
        const std::string name = it->path().filename().string();
        // <16 hex>.result — anything else (temp files, strays) is
        // ignored.
        if (name.size() != 23 ||
            name.compare(16, std::string::npos, ".result") != 0)
            continue;
        if (name.find_first_not_of("0123456789abcdef") != 16)
            continue;
        std::error_code sizeEc;
        const std::uintmax_t size = it->file_size(sizeEc);
        const std::uint64_t bytes =
            sizeEc ? 0 : static_cast<std::uint64_t>(size);
        index_.emplace(name.substr(0, 16), Blob{bytes, 0});
        bytes_ += bytes;
    }
}

std::string
ResultStore::pathForKey(const std::string &key) const
{
    return pathForDigest(campaign::digestOfKey(key));
}

std::string
ResultStore::pathForDigest(const std::string &digest) const
{
    return (fs::path(versionDir_) / (digest + ".result")).string();
}

std::optional<RunSummary>
ResultStore::fetch(const std::string &key)
{
    const std::string digest = campaign::digestOfKey(key);
    std::uint64_t generation = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = index_.find(digest);
        if (it == index_.end()) {
            ++misses_;
            return std::nullopt;
        }
        generation = it->second.generation;
    }
    // Read and parse outside the lock: blobs are only ever created
    // whole (atomic rename), so this sees a complete file or none.
    std::string bytes;
    std::string_view storedKey;
    std::optional<RunSummary> summary(std::in_place);
    const bool intact =
        readWholeFile(pathForDigest(digest), bytes) &&
        parseSummaryBlob(bytes, storedKey, *summary, schemaVersion_);
    // A digest collision with a different spec is a miss, not an
    // error: the blob itself is intact, so it stays indexed.
    if (!intact || storedKey != key)
        summary.reset();

    bool dropped = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (summary) {
            ++hits_;
            return summary;
        }
        ++misses_;
        // Unreadable or damaged blob: drop it from the index and treat
        // it as a miss; the engine re-simulates and re-publishes. Only
        // the entry this fetch looked up is dropped: concurrent fetches
        // of the same damage count it once, and an entry a publish has
        // indexed since is left alone.
        const auto it = index_.find(digest);
        if (!intact && it != index_.end() &&
            it->second.generation == generation) {
            bytes_ -= it->second.bytes;
            index_.erase(it);
            ++corrupt_;
            dropped = true;
        }
    }
    if (dropped)
        sim::warn("result store: corrupt blob for ", digest,
                  " ignored (will re-simulate)");
    return std::nullopt;
}

void
ResultStore::publish(const std::string &key, const RunSummary &summary)
{
    const std::string digest = campaign::digestOfKey(key);
    std::uint64_t seq = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (index_.count(digest))
            return; // already persisted (results are pure in their key)
        seq = tmpSeq_++;
    }

    // Render and write outside the lock. A unique temp name in the
    // same directory, then an atomic rename: concurrent readers only
    // ever see absent or complete blobs, and two racing publishers of
    // one key write identical bytes.
    const std::string tmpName = digest + ".tmp." +
                                std::to_string(::getpid()) + "." +
                                std::to_string(seq);
    const fs::path tmpPath = fs::path(versionDir_) / tmpName;
    const fs::path finalPath =
        fs::path(versionDir_) / (digest + ".result");
    // Rendered first, so the on-disk byte size is known for the stats
    // accounting and a serialization problem never leaves a torn temp
    // file.
    std::string bytes;
    appendSummaryBlob(bytes, key, summary, schemaVersion_);
    {
        std::ofstream out(tmpPath,
                          std::ios::binary | std::ios::trunc);
        if (out)
            out.write(bytes.data(),
                      static_cast<std::streamsize>(bytes.size()));
        if (!out) {
            sim::warn("result store: cannot write ",
                      tmpPath.string(), " (entry dropped)");
            std::error_code ec;
            fs::remove(tmpPath, ec);
            return;
        }
    }
    std::error_code ec;
    fs::rename(tmpPath, finalPath, ec);
    if (ec) {
        sim::warn("result store: rename to ", finalPath.string(),
                  " failed: ", ec.message(), " (entry dropped)");
        fs::remove(tmpPath, ec);
        return;
    }
    // A racing publisher of the same key may have indexed it first;
    // count the blob once.
    std::lock_guard<std::mutex> lock(mutex_);
    if (index_.emplace(digest, Blob{bytes.size(), ++generation_})
            .second) {
        bytes_ += bytes.size();
        ++stores_;
    }
}

std::size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return index_.size();
}

std::uint64_t
ResultStore::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
ResultStore::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::uint64_t
ResultStore::stores() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stores_;
}

std::uint64_t
ResultStore::corrupt() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return corrupt_;
}

StoreStats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    StoreStats s;
    s.blobs = index_.size();
    s.bytes = bytes_;
    s.hits = hits_;
    s.misses = misses_;
    s.stores = stores_;
    s.corrupt = corrupt_;
    return s;
}

std::vector<std::pair<std::string, std::uint64_t>>
ResultStore::list() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<std::string, std::uint64_t>> out;
    out.reserve(index_.size());
    for (const auto &[digest, blob] : index_)
        out.emplace_back(digest, blob.bytes);
    return out;
}

bool
ResultStore::loadByDigest(const std::string &digest,
                          std::string &key_out,
                          RunSummary &summary_out) const
{
    // No lock: blobs are only ever created whole (atomic rename), so
    // reading outside the index mutex sees absent or complete files.
    std::string bytes;
    std::string_view key;
    if (!isDigest(digest) || !readWholeFile(pathForDigest(digest), bytes) ||
        !parseSummaryBlob(bytes, key, summary_out, schemaVersion_))
        return false;
    key_out.assign(key);
    return true;
}

bool
ResultStore::readRawBlob(const std::string &digest,
                         std::string &bytes_out) const
{
    return isDigest(digest) &&
           readWholeFile(pathForDigest(digest), bytes_out);
}

} // namespace tdm::driver::service
