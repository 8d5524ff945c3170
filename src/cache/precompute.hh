/**
 * @file
 * Seed-invariant symbolic precompute cache.
 *
 * Workloads rebuild expensive derived structures on every setUp()
 * that are pure functions of (config, model seed). Two workloads use
 * this cache, the ones where it pays: NVSA for its codebooks (setUp
 * about 85 ms cache off, 3 ms on, on a 4-vCPU AVX2 host) and LTN for
 * its model bundle (about 1 ms off, 0 on). PrAE's rule tables and
 * NLM's base predicates cost the same either way and are built on
 * every setUp. When the serving runtime pre-warms one replica per
 * worker, or a sweep re-instantiates a workload per point, each
 * replica would re-derive the identical bytes. This cache builds such
 * a structure once per key and hands out shared read-only references.
 *
 * Cached structures live OUTSIDE the per-run logical-liveness
 * accounting (Fig. 3b peaks are unchanged); hits are instead charged
 * to the profiler's MemChurn as "cached" traffic so reuse stays
 * visible in the memory report, and the cache's resident bytes are
 * reported separately.
 */

#ifndef NSBENCH_CACHE_PRECOMPUTE_HH
#define NSBENCH_CACHE_PRECOMPUTE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

namespace nsbench::cache
{

/** A builder's product: the structure plus its resident footprint. */
template <typename T> struct Sized {
    std::shared_ptr<const T> value;
    uint64_t bytes = 0;
};

/**
 * A lease on a cached (or freshly built) structure. Holding the
 * handle keeps the structure alive even if the cache evicts it.
 */
template <typename T> struct CacheHandle {
    std::shared_ptr<const T> value;
    uint64_t bytes = 0;
    /** True when served from cache rather than built by this call. */
    bool hit = false;

    const T &operator*() const { return *value; }
    const T *operator->() const { return value.get(); }
    explicit operator bool() const { return value != nullptr; }
};

/** Point-in-time counters for the precompute cache. */
struct PrecomputeStats {
    uint64_t hits = 0;
    uint64_t builds = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t residentBytes = 0;
    uint64_t entries = 0;
};

/**
 * Byte-bounded, build-once key/value cache. Concurrent requests for
 * the same missing key block behind a single builder invocation
 * (single-flight at the structure level); builds run outside the
 * cache lock so unrelated keys never serialise.
 */
class PrecomputeCache
{
  public:
    explicit PrecomputeCache(uint64_t max_bytes = 256ull << 20);
    ~PrecomputeCache();

    /**
     * Returns the cached structure for @p key, building it with
     * @p builder on a miss. When the cache is disabled the builder
     * runs unconditionally and nothing is stored.
     *
     * Hits charge the structure's bytes to the current profiler
     * target's MemChurn (recordCachedAlloc).
     */
    template <typename T>
    CacheHandle<T>
    getOrBuild(const std::string &key,
               const std::function<Sized<T>()> &builder)
    {
        uint64_t bytes = 0;
        bool hit = false;
        std::shared_ptr<const void> value = getOrBuildErased(
            key,
            [&builder]() {
                Sized<T> built = builder();
                return std::pair<std::shared_ptr<const void>,
                                 uint64_t>(
                    std::static_pointer_cast<const void>(built.value),
                    built.bytes);
            },
            &bytes, &hit);
        CacheHandle<T> handle;
        handle.value = std::static_pointer_cast<const T>(value);
        handle.bytes = bytes;
        handle.hit = hit;
        return handle;
    }

    /** Shrinks (or grows) the byte budget, evicting LRU as needed. */
    void setMaxBytes(uint64_t max_bytes);

    PrecomputeStats stats() const;

    /** Drops every entry (outstanding handles stay valid). */
    void clear();

    /** The process-wide instance used by the workloads. */
    static PrecomputeCache &global();

  private:
    using ErasedBuild = std::function<
        std::pair<std::shared_ptr<const void>, uint64_t>()>;

    std::shared_ptr<const void>
    getOrBuildErased(const std::string &key,
                     const ErasedBuild &build, uint64_t *bytes,
                     bool *hit);

    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace nsbench::cache

#endif // NSBENCH_CACHE_PRECOMPUTE_HH
