#include "driver/campaign/fingerprint.hh"

#include "driver/spec/spec.hh"

namespace tdm::driver::campaign {

sim::Config
canonicalConfig(const Experiment &exp)
{
    // The fingerprint IS the canonical spec: the binding registry in
    // driver/spec is the single source of truth for every field the
    // simulation consumes, and its rendering doubles as the
    // human-readable cache key. See the CONTRACT note in spec.cc.
    return spec::canonicalSpec(exp);
}

std::string
fingerprint(const Experiment &exp)
{
    return canonicalConfig(exp).serialize();
}

std::uint64_t
fnv1a64(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char ch : s) {
        h ^= ch;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex16(std::uint64_t h)
{
    std::string out(16, '0');
    for (auto it = out.rbegin(); h != 0; ++it, h >>= 4)
        *it = "0123456789abcdef"[h & 0xf];
    return out;
}

std::string
digestOfKey(std::string_view key)
{
    return hex16(fnv1a64(key));
}

std::string
fingerprintDigest(const Experiment &exp)
{
    return digestOfKey(fingerprint(exp));
}

} // namespace tdm::driver::campaign
