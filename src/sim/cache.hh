/**
 * @file
 * Set-associative cache simulator.
 *
 * Stands in for the Nsight Compute counters behind the paper's
 * Tab. IV: representative kernels emit address traces into a two-level
 * hierarchy and the resulting hit rates / DRAM traffic feed the
 * hardware-inefficiency analysis.
 */

#ifndef NSBENCH_SIM_CACHE_HH
#define NSBENCH_SIM_CACHE_HH

#include <cstdint>
#include <vector>

namespace nsbench::sim
{

/** Geometry of one cache level. */
struct CacheConfig
{
    uint64_t sizeBytes = 0;   ///< Total capacity.
    uint64_t lineBytes = 64;  ///< Line size (power of two).
    uint64_t associativity = 4; ///< Ways per set.
};

/**
 * One LRU set-associative cache level.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Looks up one cache line by address; allocates on miss.
     * @return True on hit.
     */
    bool accessLine(uint64_t addr);

    /** Line size in bytes. */
    uint64_t lineBytes() const { return config_.lineBytes; }

    /** Hits so far. */
    uint64_t hits() const { return hits_; }

    /** Misses so far. */
    uint64_t misses() const { return misses_; }

    /** Hit fraction in [0,1]; 0 when no accesses. */
    double hitRate() const;

    /** Clears contents and counters. */
    void reset();

    /** Clears counters only, keeping cache contents warm. */
    void resetCounters();

  private:
    struct Way
    {
        uint64_t tag = 0;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    CacheConfig config_;
    uint64_t sets_;
    std::vector<Way> ways_; ///< sets_ x associativity, row-major.
    uint64_t clock_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

/**
 * An L1 -> L2 -> DRAM hierarchy. Accesses are split into lines; a
 * line missing in L1 probes L2; a line missing in L2 counts as DRAM
 * traffic.
 */
class CacheHierarchy
{
  public:
    CacheHierarchy(const CacheConfig &l1, const CacheConfig &l2);

    /** Performs a read/write of @p bytes at @p addr. */
    void access(uint64_t addr, uint64_t bytes);

    /** The L1 level. */
    const Cache &l1() const { return l1_; }

    /** The L2 level. */
    const Cache &l2() const { return l2_; }

    /** Bytes that had to come from DRAM. */
    uint64_t dramBytes() const { return dramBytes_; }

    /** Clears both levels and the traffic counters. */
    void reset();

    /** Clears counters only, keeping both levels warm. */
    void resetCounters();

  private:
    Cache l1_;
    Cache l2_;
    uint64_t dramBytes_ = 0;
};

} // namespace nsbench::sim

#endif // NSBENCH_SIM_CACHE_HH
