#include "util/failpoint.hh"

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <random>
#include <thread>

#include "util/logging.hh"

namespace nsbench::util::failpoints
{

namespace detail
{
std::atomic<bool> gArmed{false};
} // namespace detail

namespace
{

/** One armed site: its schedule, RNG stream and counters. */
struct Site
{
    SiteSpec spec;
    std::mt19937_64 rng;
    uint64_t evaluations = 0;
    uint64_t fires = 0;
    uint64_t delays = 0;
    uint64_t delayedUs = 0;
};

/** The live registry; every access is under gMu. evaluate() holds the
 *  lock for one RNG draw — failpoints are a chaos-testing tool, not a
 *  production hot path, and a single mutex keeps the per-site draw
 *  sequence exact. */
std::mutex gMu;
std::map<std::string, Site> gSites;

/** Splits "a,b,c" into non-empty parts. */
std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> parts;
    size_t start = 0;
    while (start <= text.size()) {
        size_t comma = text.find(',', start);
        if (comma == std::string::npos)
            comma = text.size();
        if (comma > start)
            parts.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    return parts;
}

/** FNV-1a over the site name: the default per-site seed, so two
 *  sites armed without explicit seeds still draw distinct streams. */
uint64_t
nameSeed(const std::string &site)
{
    uint64_t hash = 1469598103934665603ULL;
    for (char c : site) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL;
    }
    return hash ? hash : 1;
}

/** Parses the value part `prob[@seed][xLIMIT][sSKIP][~DELAYus]`. */
std::string
parseValue(const std::string &site, const std::string &value,
           SiteSpec *out)
{
    // Numbers follow the command line's rule (util::parseWhole):
    // std::from_chars, so no leading space, sign or hex form, and a
    // denormal probability is a number.
    const char *p = value.data();
    const char *end = p + value.size();
    auto [after, ec] = std::from_chars(p, end, out->probability);
    if (ec != std::errc())
        return "failpoint '" + site + "': probability is not a number";
    // from_chars accepts "nan", and a NaN probability fails no
    // comparison, so the site would fire on every evaluation.
    if (!std::isfinite(out->probability) || out->probability < 0.0 ||
        out->probability > 1.0)
        return "failpoint '" + site +
               "': probability must be in [0, 1]";
    for (p = after; p < end;) {
        char tag = *p++;
        uint64_t *field = tag == '@'   ? &out->seed
                          : tag == 'x' ? &out->limit
                          : tag == 's' ? &out->skip
                          : tag == '~' ? &out->delayUs
                                       : nullptr;
        if (!field)
            return std::string("failpoint '") + site +
                   "': unknown field '" + tag + "'";
        // Every field is a count: digits right after the tag.
        uint64_t number = 0;
        auto [next, count_ec] = std::from_chars(p, end, number);
        if (count_ec != std::errc())
            return "failpoint '" + site + "': '" + tag +
                   "' needs a number";
        p = next;
        if (tag == '~' && number == 0)
            return "failpoint '" + site + "': '~' delay must be positive";
        *field = number;
    }
    if (out->seed == 0)
        out->seed = nameSeed(site);
    return "";
}

} // namespace

const std::vector<std::string> &
knownSites()
{
    static const std::vector<std::string> names = {
        sites::kQueueTryPush,    sites::kQueuePop,
        sites::kAdmissionShed,   sites::kWorkerRun,
        sites::kWorkerCrash,     sites::kCallback,
        sites::kResultInsert,    sites::kPrecomputeBuild,
        sites::kNetAccept,       sites::kNetRead,
        sites::kNetWrite,        sites::kNetBackendConnect,
        sites::kWorkerDelay,
    };
    return names;
}

std::string
parse(const std::string &spec, std::map<std::string, SiteSpec> *out)
{
    std::map<std::string, SiteSpec> parsed;
    for (const std::string &entry : splitCommas(spec)) {
        size_t eq = entry.find('=');
        if (eq == std::string::npos || eq == 0)
            return "failpoint entry '" + entry +
                   "' is not site=prob[@seed][xLIMIT][sSKIP]";
        std::string site = entry.substr(0, eq);
        bool known = false;
        for (const std::string &name : knownSites())
            if (name == site) {
                known = true;
                break;
            }
        if (!known)
            return "unknown failpoint site '" + site + "'";
        if (parsed.count(site))
            return "failpoint site '" + site + "' given twice";
        SiteSpec value;
        std::string error =
            parseValue(site, entry.substr(eq + 1), &value);
        if (!error.empty())
            return error;
        parsed.emplace(std::move(site), value);
    }
    if (out)
        *out = std::move(parsed);
    return "";
}

std::string
configure(const std::string &spec)
{
    std::map<std::string, SiteSpec> parsed;
    std::string error = parse(spec, &parsed);
    if (!error.empty())
        return error;
    std::lock_guard<std::mutex> lock(gMu);
    gSites.clear();
    for (const auto &[name, site_spec] : parsed) {
        Site site;
        site.spec = site_spec;
        site.rng.seed(site_spec.seed);
        gSites.emplace(name, std::move(site));
    }
    detail::gArmed.store(!gSites.empty(), std::memory_order_relaxed);
    return "";
}

void
configureFromEnv()
{
    const char *spec = std::getenv("NSBENCH_FAILPOINTS");
    if (!spec || !*spec)
        return;
    std::string error = configure(spec);
    if (!error.empty())
        warn("NSBENCH_FAILPOINTS ignored: " + error);
}

void
reset()
{
    std::lock_guard<std::mutex> lock(gMu);
    gSites.clear();
    detail::gArmed.store(false, std::memory_order_relaxed);
}

std::map<std::string, SiteStats>
stats()
{
    std::lock_guard<std::mutex> lock(gMu);
    std::map<std::string, SiteStats> out;
    for (const auto &[name, site] : gSites)
        out[name] = SiteStats{site.evaluations, site.fires,
                              site.delays, site.delayedUs};
    return out;
}

bool
evaluate(const char *site)
{
    uint64_t delay_us = 0;
    {
        std::lock_guard<std::mutex> lock(gMu);
        auto it = gSites.find(site);
        if (it == gSites.end())
            return false;
        Site &state = it->second;
        uint64_t index = state.evaluations++;
        // Consume the draw even when skip/limit mute the site, so the
        // k-th evaluation always sees the k-th draw of the stream and
        // the schedule is a pure function of the spec.
        double draw = std::uniform_real_distribution<double>(
            0.0, 1.0)(state.rng);
        if (index < state.spec.skip)
            return false;
        if (state.spec.limit && state.fires >= state.spec.limit)
            return false;
        if (draw >= state.spec.probability)
            return false;
        state.fires++;
        if (state.spec.delayUs == 0)
            return true;
        // Delay action: account under the lock, sleep outside it so
        // a slow site stalls only its own caller, not the registry.
        state.delays++;
        state.delayedUs += state.spec.delayUs;
        delay_us = state.spec.delayUs;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    return false;
}

} // namespace nsbench::util::failpoints
