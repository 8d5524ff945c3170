/**
 * @file
 * Precompute-cache tests: build-once semantics, disabled-mode
 * pass-through, byte-budget eviction, failed-build retry, concurrent
 * single-flight builds, and that memoizing setUp never changes the
 * op stream a workload's run() is characterized by.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "cache/config.hh"
#include "cache/precompute.hh"
#include "core/profiler.hh"
#include "serve/presets.hh"
#include "util/threadpool.hh"
#include "workloads/register.hh"

namespace
{

using namespace nsbench;
using cache::CacheHandle;
using cache::PrecomputeCache;
using cache::Sized;

/** Enables memoization for the test body, restoring the default. */
class CachePrecompute : public testing::Test
{
  protected:
    void SetUp() override { cache::setEnabled(true); }
    void TearDown() override { cache::resetEnabled(); }
};

Sized<int>
sizedInt(int value, uint64_t bytes)
{
    Sized<int> out;
    out.value = std::make_shared<int>(value);
    out.bytes = bytes;
    return out;
}

TEST_F(CachePrecompute, BuildsOnceThenServesHits)
{
    PrecomputeCache cache(1 << 20);
    std::atomic<int> builds{0};
    auto builder = [&builds]() {
        builds.fetch_add(1);
        return sizedInt(42, 128);
    };

    CacheHandle<int> first = cache.getOrBuild<int>("k", builder);
    CacheHandle<int> again = cache.getOrBuild<int>("k", builder);

    EXPECT_EQ(builds.load(), 1);
    EXPECT_FALSE(first.hit);
    EXPECT_TRUE(again.hit);
    EXPECT_EQ(first.value.get(), again.value.get());
    EXPECT_EQ(*again, 42);
    EXPECT_EQ(again.bytes, 128u);

    cache::PrecomputeStats stats = cache.stats();
    EXPECT_EQ(stats.builds, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.residentBytes, 128u);
}

TEST_F(CachePrecompute, DisabledModeBuildsEveryTimeAndStoresNothing)
{
    cache::setEnabled(false);
    PrecomputeCache cache(1 << 20);
    std::atomic<int> builds{0};
    auto builder = [&builds]() {
        builds.fetch_add(1);
        return sizedInt(7, 64);
    };

    CacheHandle<int> a = cache.getOrBuild<int>("k", builder);
    CacheHandle<int> b = cache.getOrBuild<int>("k", builder);
    EXPECT_EQ(builds.load(), 2);
    EXPECT_FALSE(a.hit);
    EXPECT_FALSE(b.hit);
    EXPECT_NE(a.value.get(), b.value.get());
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().residentBytes, 0u);
}

TEST_F(CachePrecompute, ByteBudgetEvictsLruEntries)
{
    PrecomputeCache cache(256);
    auto build_at = [](int value) {
        return [value]() { return sizedInt(value, 100); };
    };

    CacheHandle<int> a = cache.getOrBuild<int>("a", build_at(1));
    cache.getOrBuild<int>("b", build_at(2));
    // Third 100-byte entry overflows the 256-byte budget: "a", the
    // least recently used, is evicted.
    cache.getOrBuild<int>("c", build_at(3));

    cache::PrecomputeStats stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.residentBytes, 256u);
    // The outstanding handle keeps the evicted structure alive.
    EXPECT_EQ(*a, 1);

    // Re-requesting the evicted key rebuilds it.
    std::atomic<int> rebuilds{0};
    cache.getOrBuild<int>("a", [&rebuilds]() {
        rebuilds.fetch_add(1);
        return sizedInt(1, 100);
    });
    EXPECT_EQ(rebuilds.load(), 1);
}

TEST_F(CachePrecompute, FailedBuildsAreRetried)
{
    PrecomputeCache cache(1 << 20);
    std::atomic<int> attempts{0};
    auto flaky = [&attempts]() -> Sized<int> {
        if (attempts.fetch_add(1) == 0)
            throw std::runtime_error("transient");
        return sizedInt(9, 32);
    };

    EXPECT_THROW(cache.getOrBuild<int>("k", flaky),
                 std::runtime_error);
    CacheHandle<int> handle = cache.getOrBuild<int>("k", flaky);
    EXPECT_EQ(*handle, 9);
    EXPECT_EQ(attempts.load(), 2);
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST_F(CachePrecompute, ConcurrentRequestsShareOneBuild)
{
    PrecomputeCache cache(1 << 20);
    std::atomic<int> builds{0};
    auto slow_builder = [&builds]() {
        builds.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return sizedInt(5, 16);
    };

    std::vector<std::thread> threads;
    std::vector<CacheHandle<int>> handles(4);
    for (int t = 0; t < 4; t++) {
        threads.emplace_back([&, t]() {
            handles[static_cast<size_t>(t)] =
                cache.getOrBuild<int>("k", slow_builder);
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(builds.load(), 1);
    for (const auto &handle : handles) {
        ASSERT_TRUE(handle);
        EXPECT_EQ(*handle, 5);
        EXPECT_EQ(handle.value.get(), handles[0].value.get());
    }
}

TEST_F(CachePrecompute, ClearDropsEntriesButNotHandles)
{
    PrecomputeCache cache(1 << 20);
    CacheHandle<int> handle = cache.getOrBuild<int>(
        "k", []() { return sizedInt(3, 8); });
    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().residentBytes, 0u);
    EXPECT_EQ(*handle, 3);
}

/** Invocations, FLOPs and bytes of every (op, phase) of one run(). */
using OpCounts =
    std::map<std::string, std::tuple<uint64_t, double, double>>;

OpCounts
profiledRun(core::Workload &workload)
{
    util::ThreadPool::SerialScope serial;
    core::Profiler profiler;
    core::Profiler::ThreadTargetScope target(profiler);
    workload.run();
    OpCounts counts;
    for (const auto &op : profiler.opsByTime())
        counts[op.name + "/" + std::string(core::phaseName(op.phase))] =
            {op.stats.invocations, op.stats.flops, op.stats.bytes()};
    return counts;
}

TEST_F(CachePrecompute, RepeatRunsKeepEveryWorkloadsOpStream)
{
    // The cache may only memoize setUp structures: a repeat run with
    // caching on must do exactly the work of an uncached run.
    workloads::registerAllWorkloads();
    for (const std::string &name :
         core::WorkloadRegistry::global().names()) {
        cache::setEnabled(false);
        auto plain = serve::serveFactory(name);
        plain->setUp(7);
        plain->reseedEpisodes(22);
        OpCounts expected = profiledRun(*plain);

        cache::setEnabled(true);
        PrecomputeCache::global().clear();
        auto cached = serve::serveFactory(name);
        cached->setUp(7);
        cached->reseedEpisodes(21);
        profiledRun(*cached);
        cached->reseedEpisodes(22);
        EXPECT_EQ(profiledRun(*cached), expected) << name;
    }
    PrecomputeCache::global().clear();
}

} // namespace
