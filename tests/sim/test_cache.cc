#include <gtest/gtest.h>

#include "sim/cache.hh"

namespace
{

using namespace nsbench::sim;

TEST(Cache, ColdMissThenHit)
{
    Cache c({1024, 64, 2});
    EXPECT_FALSE(c.accessLine(0));
    EXPECT_TRUE(c.accessLine(0));
    EXPECT_TRUE(c.accessLine(32)); // same line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_NEAR(c.hitRate(), 2.0 / 3.0, 1e-12);
}

TEST(Cache, LruEvictionOrder)
{
    // 2 sets x 2 ways of 64B lines = 256B cache. Addresses 0, 128,
    // 256 map to set 0.
    Cache c({256, 64, 2});
    EXPECT_FALSE(c.accessLine(0));
    EXPECT_FALSE(c.accessLine(128));
    EXPECT_TRUE(c.accessLine(0));   // 0 now MRU
    EXPECT_FALSE(c.accessLine(256)); // evicts 128
    EXPECT_TRUE(c.accessLine(0));
    EXPECT_FALSE(c.accessLine(128)); // was evicted
}

TEST(Cache, SetIsolation)
{
    // Lines in different sets do not evict each other.
    Cache c({256, 64, 2});
    EXPECT_FALSE(c.accessLine(0));   // set 0
    EXPECT_FALSE(c.accessLine(64));  // set 1
    EXPECT_FALSE(c.accessLine(128)); // set 0
    EXPECT_TRUE(c.accessLine(64));
    EXPECT_TRUE(c.accessLine(0));
}

TEST(Cache, CapacityStreamingMissesEverything)
{
    Cache c({4096, 64, 4});
    // Stream 1 MiB twice: far over capacity, second pass still misses.
    const uint64_t lines = (1 << 20) / 64;
    for (int pass = 0; pass < 2; pass++) {
        for (uint64_t i = 0; i < lines; i++)
            c.accessLine(i * 64);
    }
    EXPECT_EQ(c.hits(), 0u);
}

TEST(Cache, ResetAndResetCounters)
{
    Cache c({1024, 64, 2});
    c.accessLine(0);
    c.accessLine(0);
    c.resetCounters();
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.misses(), 0u);
    EXPECT_TRUE(c.accessLine(0)); // contents survived
    c.reset();
    EXPECT_FALSE(c.accessLine(0)); // contents cleared
}

TEST(CacheHierarchy, MissFlowsThroughLevels)
{
    CacheHierarchy h({512, 64, 2}, {4096, 64, 4});
    h.access(0, 4);
    EXPECT_EQ(h.l1().misses(), 1u);
    EXPECT_EQ(h.l2().misses(), 1u);
    EXPECT_EQ(h.dramBytes(), 64u);
    h.access(0, 4); // L1 hit, nothing deeper
    EXPECT_EQ(h.l1().hits(), 1u);
    EXPECT_EQ(h.l2().misses(), 1u);
    EXPECT_EQ(h.dramBytes(), 64u);
}

TEST(CacheHierarchy, L2CatchesL1Evictions)
{
    // L1: 2 sets x 2 ways (256B); L2 large.
    CacheHierarchy h({256, 64, 2}, {64 * 1024, 64, 16});
    // Three lines in L1 set 0 force an eviction of the LRU line 0...
    h.access(0, 4);
    h.access(128, 4);
    h.access(256, 4);
    // ...so line 0 re-misses L1 but hits L2 (no new DRAM traffic).
    uint64_t dram_before = h.dramBytes();
    h.access(0, 4);
    EXPECT_EQ(h.dramBytes(), dram_before);
    EXPECT_GE(h.l2().hits(), 1u);
}

TEST(CacheHierarchy, SpanningAccessTouchesMultipleLines)
{
    CacheHierarchy h({512, 64, 2}, {4096, 64, 4});
    h.access(60, 8); // crosses a 64B boundary
    EXPECT_EQ(h.l1().misses(), 2u);
}

TEST(CacheDeath, RejectsBadGeometry)
{
    EXPECT_DEATH(Cache({1000, 60, 2}), "power of two");
    EXPECT_DEATH(Cache({1024, 64, 0}), "positive");
    CacheHierarchy h({512, 64, 2}, {4096, 64, 4});
    EXPECT_DEATH(h.access(0, 0), "zero-byte");
    EXPECT_DEATH(CacheHierarchy({512, 64, 2}, {4096, 128, 4}),
                 "mismatched line");
}

} // namespace
