#include "driver/service/store.hh"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include <unistd.h>

#include "driver/campaign/fingerprint.hh"
#include "driver/report/json_writer.hh"
#include "sim/logging.hh"

namespace fs = std::filesystem;

namespace tdm::driver::service {

namespace {

constexpr const char *kMagic = "tdmstore";
constexpr unsigned kFormatVersion = 1;

void
putU64(std::string &out, std::string_view name, std::uint64_t v)
{
    out += "f ";
    out += name;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
}

/** Doubles use the exports' 17-digit formatter: they parse back
 *  bit-exactly, and "inf"/"nan" survive the round-trip through
 *  strtod. */
void
putF64(std::string &out, std::string_view name, double v)
{
    out += "f ";
    out += name;
    out += ' ';
    report::appendDouble(out, v);
    out += '\n';
}

void
putPhases(std::string &out, const std::string &prefix,
          const cpu::PhaseBreakdown &p)
{
    putU64(out, prefix + ".deps", p.deps);
    putU64(out, prefix + ".sched", p.sched);
    putU64(out, prefix + ".exec", p.exec);
    putU64(out, prefix + ".idle", p.idle);
}

/**
 * Field accessor table: one row per scalar RunSummary field, shared by
 * the writer (via the blob layout above) and the reader. Every field
 * must appear exactly once in a blob or the load is rejected.
 */
struct FieldRef
{
    enum Kind { U64, F64 } kind;
    // Exactly one of these is meaningful per row.
    std::uint64_t *u64;
    double *f64;
};

std::map<std::string, FieldRef>
fieldTable(RunSummary &s, std::uint64_t &completed,
           std::uint64_t &mCompleted, std::uint64_t &numTasks)
{
    std::map<std::string, FieldRef> t;
    auto u = [&](const char *n, std::uint64_t &v) {
        t[n] = {FieldRef::U64, &v, nullptr};
    };
    auto d = [&](const char *n, double &v) {
        t[n] = {FieldRef::F64, nullptr, &v};
    };
    u("completed", completed);
    u("makespan", s.makespan);
    d("time_ms", s.timeMs);
    d("energy_j", s.energyJ);
    d("edp", s.edp);
    d("avg_watts", s.avgWatts);
    u("num_tasks", numTasks);
    d("avg_task_us", s.avgTaskUs);

    core::MachineResult &m = s.machine;
    u("m.completed", mCompleted);
    u("m.makespan", m.makespan);
    d("m.time_ms", m.timeMs);
    u("m.master.deps", m.master.deps);
    u("m.master.sched", m.master.sched);
    u("m.master.exec", m.master.exec);
    u("m.master.idle", m.master.idle);
    u("m.workers.deps", m.workersTotal.deps);
    u("m.workers.sched", m.workersTotal.sched);
    u("m.workers.exec", m.workersTotal.exec);
    u("m.workers.idle", m.workersTotal.idle);
    u("m.chip.deps", m.chipTotal.deps);
    u("m.chip.sched", m.chipTotal.sched);
    u("m.chip.exec", m.chipTotal.exec);
    u("m.chip.idle", m.chipTotal.idle);
    d("m.energy_j", m.energyJ);
    d("m.edp", m.edp);
    d("m.avg_watts", m.avgWatts);
    u("m.tasks_executed", m.tasksExecuted);
    u("m.dmu_blocked_ops", m.dmuBlockedOps);
    u("m.dmu_accesses", m.dmuAccesses);
    d("m.dat_avg_occupied_sets", m.datAvgOccupiedSets);
    u("m.steals", m.steals);
    d("m.master_creation_fraction", m.masterCreationFraction);
    return t;
}

} // namespace

void
writeSummaryBlob(std::ostream &os, const std::string &key,
                 const RunSummary &summary, unsigned schema_version)
{
    // The payload (everything between the header and the checksum
    // line) is built separately so the checksum can cover it.
    std::string payload = "key " + key + '\n';

    const core::MachineResult &m = summary.machine;
    putU64(payload, "completed", summary.completed ? 1 : 0);
    putU64(payload, "makespan", summary.makespan);
    putF64(payload, "time_ms", summary.timeMs);
    putF64(payload, "energy_j", summary.energyJ);
    putF64(payload, "edp", summary.edp);
    putF64(payload, "avg_watts", summary.avgWatts);
    putU64(payload, "num_tasks", summary.numTasks);
    putF64(payload, "avg_task_us", summary.avgTaskUs);
    putU64(payload, "m.completed", m.completed ? 1 : 0);
    putU64(payload, "m.makespan", m.makespan);
    putF64(payload, "m.time_ms", m.timeMs);
    putPhases(payload, "m.master", m.master);
    putPhases(payload, "m.workers", m.workersTotal);
    putPhases(payload, "m.chip", m.chipTotal);
    putF64(payload, "m.energy_j", m.energyJ);
    putF64(payload, "m.edp", m.edp);
    putF64(payload, "m.avg_watts", m.avgWatts);
    putU64(payload, "m.tasks_executed", m.tasksExecuted);
    putU64(payload, "m.dmu_blocked_ops", m.dmuBlockedOps);
    putU64(payload, "m.dmu_accesses", m.dmuAccesses);
    putF64(payload, "m.dat_avg_occupied_sets", m.datAvgOccupiedSets);
    putU64(payload, "m.steals", m.steals);
    putF64(payload, "m.master_creation_fraction",
           m.masterCreationFraction);

    payload += "metrics " + std::to_string(m.metrics.size()) + '\n';
    for (const auto &[k, v] : m.metrics.entries()) {
        payload += "m ";
        payload += k;
        payload += ' ';
        report::appendDouble(payload, v);
        payload += '\n';
    }

    char digest[17];
    std::snprintf(digest, sizeof digest, "%016" PRIx64,
                  campaign::fnv1a64(payload));
    os << kMagic << ' ' << kFormatVersion << " schema "
       << schema_version << '\n'
       << payload << "sum " << digest << '\n'
       << "end\n";
}

bool
readSummaryBlob(std::istream &is, std::string &key_out,
                RunSummary &summary_out, unsigned schema_version)
{
    std::string line;
    if (!std::getline(is, line))
        return false;
    {
        std::istringstream header(line);
        std::string magic, schemaWord;
        unsigned format = 0, schema = 0;
        if (!(header >> magic >> format >> schemaWord >> schema) ||
            magic != kMagic || format != kFormatVersion ||
            schemaWord != "schema" || schema != schema_version)
            return false;
    }

    std::ostringstream body;
    RunSummary s;
    std::uint64_t completed = 0, mCompleted = 0, numTasks = 0;
    auto fields = fieldTable(s, completed, mCompleted, numTasks);
    const std::size_t fieldsExpected = fields.size();
    std::size_t fieldsSeen = 0;
    std::string key;
    bool haveKey = false;
    std::size_t metricsExpected = 0, metricsSeen = 0;
    bool inMetrics = false;

    while (std::getline(is, line)) {
        if (line.rfind("sum ", 0) == 0) {
            char digest[17];
            std::snprintf(digest, sizeof digest, "%016" PRIx64,
                          campaign::fnv1a64(body.str()));
            if (line.substr(4) != digest)
                return false;
            // Everything present and accounted for? (fields shrinks
            // as names are consumed, so compare against the original
            // count.)
            if (!haveKey || fieldsSeen != fieldsExpected ||
                metricsSeen != metricsExpected)
                return false;
            if (!std::getline(is, line) || line != "end")
                return false;
            s.completed = completed != 0;
            s.machine.completed = mCompleted != 0;
            if (numTasks > UINT32_MAX)
                return false;
            s.numTasks = static_cast<std::uint32_t>(numTasks);
            key_out = key;
            summary_out = s;
            return true;
        }
        body << line << '\n';

        std::istringstream ls(line);
        std::string tag;
        if (!(ls >> tag))
            return false;
        if (tag == "key") {
            if (haveKey || inMetrics)
                return false;
            // The key is the remainder of the line, spaces included.
            const auto pos = line.find(' ');
            if (pos == std::string::npos || pos + 1 >= line.size())
                return false;
            key = line.substr(pos + 1);
            haveKey = true;
        } else if (tag == "f") {
            if (inMetrics)
                return false;
            std::string name, value;
            if (!(ls >> name >> value))
                return false;
            auto it = fields.find(name);
            if (it == fields.end())
                return false;
            char *endp = nullptr;
            if (it->second.kind == FieldRef::U64) {
                errno = 0;
                const std::uint64_t v =
                    std::strtoull(value.c_str(), &endp, 10);
                if (errno != 0 || endp == value.c_str() || *endp)
                    return false;
                *it->second.u64 = v;
            } else {
                const double v = std::strtod(value.c_str(), &endp);
                if (endp == value.c_str() || *endp)
                    return false;
                *it->second.f64 = v;
            }
            // Reject duplicate assignments of the same field.
            fields.erase(it);
            ++fieldsSeen;
        } else if (tag == "metrics") {
            if (inMetrics || !(ls >> metricsExpected))
                return false;
            inMetrics = true;
        } else if (tag == "m") {
            if (!inMetrics)
                return false;
            std::string name, value;
            if (!(ls >> name >> value))
                return false;
            char *endp = nullptr;
            const double v = std::strtod(value.c_str(), &endp);
            if (endp == value.c_str() || *endp)
                return false;
            s.machine.metrics.set(name, v);
            ++metricsSeen;
        } else {
            return false;
        }
    }
    return false; // truncated: EOF before the sum/end trailer
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
        index_.emplace(name.substr(0, 16), bytes);
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
    std::lock_guard<std::mutex> lock(mutex_);
    if (index_.find(digest) == index_.end()) {
        ++misses_;
        return std::nullopt;
    }
    std::ifstream in(fs::path(versionDir_) / (digest + ".result"));
    std::string storedKey;
    RunSummary summary;
    if (!in || !readSummaryBlob(in, storedKey, summary,
                                schemaVersion_)) {
        // Unreadable or damaged blob: drop it from the index and treat
        // as a miss — the engine re-simulates and re-publishes.
        ++corrupt_;
        ++misses_;
        if (auto it = index_.find(digest); it != index_.end()) {
            bytes_ -= it->second;
            index_.erase(it);
        }
        sim::warn("result store: corrupt blob for ", digest,
                  " ignored (will re-simulate)");
        return std::nullopt;
    }
    if (storedKey != key) {
        // Digest collision with a different spec: a miss, not an
        // error. (The blob itself is intact, so keep it indexed.)
        ++misses_;
        return std::nullopt;
    }
    ++hits_;
    return summary;
}

void
ResultStore::publish(const std::string &key, const RunSummary &summary)
{
    const std::string digest = campaign::digestOfKey(key);
    std::lock_guard<std::mutex> lock(mutex_);
    if (index_.count(digest))
        return; // already persisted (results are pure in their key)

    // Unique temp name in the same directory, then an atomic rename:
    // concurrent readers only ever see absent or complete blobs.
    const std::string tmpName = digest + ".tmp." +
                                std::to_string(::getpid()) + "." +
                                std::to_string(tmpSeq_++);
    const fs::path tmpPath = fs::path(versionDir_) / tmpName;
    const fs::path finalPath =
        fs::path(versionDir_) / (digest + ".result");
    // Render first so the on-disk byte size is known for the stats
    // accounting (and a serialization problem never leaves a torn
    // temp file).
    std::ostringstream blob;
    writeSummaryBlob(blob, key, summary, schemaVersion_);
    const std::string bytes = blob.str();
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
    // The early count() check makes a duplicate unlikely, but another
    // writer sharing this directory could have indexed the digest via
    // a rescan — never double-count its bytes.
    if (index_.emplace(digest, bytes.size()).second)
        bytes_ += bytes.size();
    ++stores_;
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
    return {index_.begin(), index_.end()};
}

bool
ResultStore::loadByDigest(const std::string &digest,
                          std::string &key_out,
                          RunSummary &summary_out) const
{
    if (digest.size() != 16 ||
        digest.find_first_not_of("0123456789abcdef")
            != std::string::npos)
        return false;
    // No lock: blobs are only ever created whole (atomic rename), so
    // reading outside the index mutex sees absent or complete files.
    std::ifstream in(pathForDigest(digest), std::ios::binary);
    if (!in)
        return false;
    return readSummaryBlob(in, key_out, summary_out, schemaVersion_);
}

bool
ResultStore::readRawBlob(const std::string &digest,
                         std::string &bytes_out) const
{
    if (digest.size() != 16 ||
        digest.find_first_not_of("0123456789abcdef")
            != std::string::npos)
        return false;
    std::ifstream in(pathForDigest(digest), std::ios::binary);
    if (!in)
        return false;
    std::ostringstream os;
    os << in.rdbuf();
    bytes_out = os.str();
    return true;
}

} // namespace tdm::driver::service

