#include "sim/cache.hh"

#include "util/logging.hh"

namespace nsbench::sim
{

namespace
{

bool
isPow2(uint64_t v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

} // namespace

Cache::Cache(const CacheConfig &config) : config_(config)
{
    util::panicIf(!isPow2(config_.lineBytes),
                  "Cache: line size must be a power of two");
    util::panicIf(config_.associativity == 0,
                  "Cache: associativity must be positive");
    uint64_t lines = config_.sizeBytes / config_.lineBytes;
    util::panicIf(lines == 0 || lines % config_.associativity != 0,
                  "Cache: size must be a multiple of line*assoc");
    sets_ = lines / config_.associativity;
    util::panicIf(!isPow2(sets_),
                  "Cache: set count must be a power of two");
    ways_.resize(sets_ * config_.associativity);
}

bool
Cache::accessLine(uint64_t addr)
{
    clock_++;
    uint64_t line = addr / config_.lineBytes;
    uint64_t set = line & (sets_ - 1);
    uint64_t tag = line / sets_;
    Way *base = &ways_[set * config_.associativity];

    Way *victim = base;
    for (uint64_t w = 0; w < config_.associativity; w++) {
        Way &way = base[w];
        if (way.valid && way.tag == tag) {
            way.lastUse = clock_;
            hits_++;
            return true;
        }
        if (!way.valid) {
            victim = &way;
        } else if (victim->valid && way.lastUse < victim->lastUse) {
            victim = &way;
        }
    }

    misses_++;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = clock_;
    return false;
}

double
Cache::hitRate() const
{
    uint64_t total = hits_ + misses_;
    return total ? static_cast<double>(hits_) /
                       static_cast<double>(total)
                 : 0.0;
}

void
Cache::resetCounters()
{
    hits_ = 0;
    misses_ = 0;
}

void
Cache::reset()
{
    for (auto &way : ways_)
        way = Way{};
    clock_ = 0;
    hits_ = 0;
    misses_ = 0;
}

CacheHierarchy::CacheHierarchy(const CacheConfig &l1,
                               const CacheConfig &l2)
    : l1_(l1), l2_(l2)
{
    util::panicIf(l1.lineBytes != l2.lineBytes,
                  "CacheHierarchy: mismatched line sizes");
}

void
CacheHierarchy::access(uint64_t addr, uint64_t bytes)
{
    util::panicIf(bytes == 0, "CacheHierarchy: zero-byte access");
    uint64_t line_bytes = l1_.lineBytes();
    uint64_t first = addr / line_bytes;
    uint64_t last = (addr + bytes - 1) / line_bytes;
    for (uint64_t line = first; line <= last; line++) {
        uint64_t line_addr = line * line_bytes;
        if (!l1_.accessLine(line_addr)) {
            if (!l2_.accessLine(line_addr))
                dramBytes_ += line_bytes;
        }
    }
}

void
CacheHierarchy::resetCounters()
{
    l1_.resetCounters();
    l2_.resetCounters();
    dramBytes_ = 0;
}

void
CacheHierarchy::reset()
{
    l1_.reset();
    l2_.reset();
    dramBytes_ = 0;
}

} // namespace nsbench::sim
