#include "driver/campaign/result_cache.hh"

namespace tdm::driver::campaign {

namespace {

/** Internal key: schema version + canonical fingerprint. */
std::string
versionedKey(const std::string &key)
{
    return "schema=" + std::to_string(ResultCache::kSchemaVersion) + ";"
         + key;
}

} // namespace

std::optional<RunSummary>
ResultCache::lookup(const std::string &key)
{
    const std::string vkey = versionedKey(key);
    std::shared_ptr<const RunSummary> hit;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = map_.find(vkey);
        if (it == map_.end()) {
            ++misses_;
            return std::nullopt;
        }
        ++hits_;
        hit = it->second;
    }
    return *hit;
}

void
ResultCache::store(const std::string &key, const RunSummary &summary)
{
    std::string vkey = versionedKey(key);
    auto entry = std::make_shared<const RunSummary>(summary);
    std::lock_guard<std::mutex> lock(mutex_);
    map_.insert_or_assign(std::move(vkey), std::move(entry));
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
}

std::uint64_t
ResultCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
ResultCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

void
ResultCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    hits_ = 0;
    misses_ = 0;
}

} // namespace tdm::driver::campaign
