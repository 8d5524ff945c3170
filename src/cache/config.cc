#include "cache/config.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/logging.hh"

namespace nsbench::cache
{

namespace
{

constexpr int kUnset = -1;

std::atomic<int> gOverride{kUnset};

bool
resolveDefault()
{
    // Unset or off-ish values mean the historical uncached
    // behaviour; an unrecognized value is fatal.
    const char *env = std::getenv("NSBENCH_CACHE");
    if (env == nullptr || env[0] == '\0')
        return false;
    if (std::strcmp(env, "on") == 0 || std::strcmp(env, "1") == 0 ||
        std::strcmp(env, "true") == 0)
        return true;
    if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0 ||
        std::strcmp(env, "false") == 0)
        return false;
    util::fatal(std::string("NSBENCH_CACHE must be one of "
                            "on/1/true/off/0/false, got '") +
                env + "'");
}

} // namespace

bool
enabled()
{
    int forced = gOverride.load(std::memory_order_relaxed);
    if (forced != kUnset)
        return forced != 0;
    static const bool resolved = resolveDefault();
    return resolved;
}

void
setEnabled(bool enabled)
{
    gOverride.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

void
resetEnabled()
{
    gOverride.store(kUnset, std::memory_order_relaxed);
}

} // namespace nsbench::cache
