#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/threadpool.hh"

namespace
{

using nsbench::util::grainFor;
using nsbench::util::ThreadPool;

/** Restores the default global pool width when a test exits. */
struct WidthGuard
{
    ~WidthGuard() { ThreadPool::setGlobalThreads(0); }
};

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    for (int width : {1, 2, 4, 13}) {
        ThreadPool pool(width);
        std::vector<std::atomic<int>> hits(1000);
        pool.parallelFor(0, 1000, 7, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; i++)
                hits[static_cast<size_t>(i)]++;
        });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1) << "width " << width;
    }
}

TEST(ThreadPool, RespectsGrainChunking)
{
    ThreadPool pool(4);
    std::mutex mu;
    std::vector<std::pair<int64_t, int64_t>> ranges;
    pool.parallelFor(0, 100, 30, [&](int64_t lo, int64_t hi) {
        std::lock_guard<std::mutex> lock(mu);
        ranges.emplace_back(lo, hi);
    });
    // 100 items at grain 30 -> chunks [0,30) [30,60) [60,90) [90,100).
    ASSERT_EQ(ranges.size(), 4u);
    std::sort(ranges.begin(), ranges.end());
    EXPECT_EQ(ranges[0], (std::pair<int64_t, int64_t>{0, 30}));
    EXPECT_EQ(ranges[3], (std::pair<int64_t, int64_t>{90, 100}));
}

TEST(ThreadPool, EmptyRangeRunsNothing)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallelFor(5, 5, 1, [&](int64_t, int64_t) { calls++; });
    pool.parallelFor(7, 3, 1, [&](int64_t, int64_t) { calls++; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, NestedRegionsSerializeInline)
{
    ThreadPool pool(4);
    std::atomic<int64_t> total{0};
    pool.parallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; i++) {
            EXPECT_TRUE(ThreadPool::inParallelRegion());
            // A nested region must not deadlock and must still cover
            // its whole range.
            pool.parallelFor(0, 10, 2,
                             [&](int64_t nlo, int64_t nhi) {
                                 total += nhi - nlo;
                             });
        }
    });
    EXPECT_EQ(total.load(), 80);
    EXPECT_FALSE(ThreadPool::inParallelRegion());
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(0, 100, 1,
                         [&](int64_t lo, int64_t) {
                             if (lo == 57)
                                 throw std::runtime_error("boom");
                         }),
        std::runtime_error);
    // The pool must stay usable after a failed region.
    std::atomic<int> ok{0};
    pool.parallelFor(0, 10, 1, [&](int64_t, int64_t) { ok++; });
    EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, ChunkedSumsMatchAcrossWidths)
{
    // The determinism contract: identical chunk grid -> identical
    // partials -> identical combined result at every width.
    std::vector<float> values(100000);
    for (size_t i = 0; i < values.size(); i++)
        values[i] = 0.001f * static_cast<float>(i % 997) - 0.3f;

    auto chunked_sum = [&](ThreadPool &pool) {
        constexpr int64_t grain = 1024;
        auto n = static_cast<int64_t>(values.size());
        int64_t chunks = (n + grain - 1) / grain;
        std::vector<double> partials(static_cast<size_t>(chunks));
        pool.parallelFor(0, chunks, 1, [&](int64_t c0, int64_t c1) {
            for (int64_t c = c0; c < c1; c++) {
                double s = 0.0;
                int64_t hi = std::min(n, (c + 1) * grain);
                for (int64_t i = c * grain; i < hi; i++)
                    s += values[static_cast<size_t>(i)];
                partials[static_cast<size_t>(c)] = s;
            }
        });
        double acc = 0.0;
        for (double p : partials)
            acc += p;
        return acc;
    };

    ThreadPool serial(1);
    double expect = chunked_sum(serial);
    for (int width : {2, 4, 8, 29}) {
        ThreadPool pool(width);
        EXPECT_EQ(chunked_sum(pool), expect) << "width " << width;
    }
}

TEST(ThreadPool, GlobalWidthConfiguration)
{
    WidthGuard guard;
    ThreadPool::setGlobalThreads(3);
    EXPECT_EQ(ThreadPool::globalThreads(), 3);
    EXPECT_EQ(ThreadPool::global().threads(), 3);
    ThreadPool::setGlobalThreads(0);
    EXPECT_EQ(ThreadPool::globalThreads(),
              ThreadPool::defaultThreads());
}

TEST(ThreadPool, DefaultThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1);
}

TEST(ThreadPool, EnvWidthFollowsTheWholeNumberRule)
{
    // Only defaultThreads() runs: no pool is built at any width here.
    const char *saved = std::getenv("NSBENCH_THREADS");
    std::optional<std::string> restore;
    if (saved)
        restore = saved;
    unsetenv("NSBENCH_THREADS");
    int hardware = ThreadPool::defaultThreads();

    for (int width : {1, 7, nsbench::util::kMaxThreads}) {
        setenv("NSBENCH_THREADS", std::to_string(width).c_str(), 1);
        EXPECT_EQ(ThreadPool::defaultThreads(), width);
    }
    // Outside 1..kMaxThreads or not a whole number: warn and fall
    // back to the hardware width. A prefix parse would read "2x" as
    // 2, " 3" as 3 and "4.5" as 4.
    for (const char *text : {"0", "-1", "1025", "100000", "2x", " 3",
                             "4.5", "+2", "0x10", "abc", ""}) {
        setenv("NSBENCH_THREADS", text, 1);
        EXPECT_EQ(ThreadPool::defaultThreads(), hardware)
            << "NSBENCH_THREADS='" << text << "'";
    }

    if (restore)
        setenv("NSBENCH_THREADS", restore->c_str(), 1);
    else
        unsetenv("NSBENCH_THREADS");
}

TEST(ThreadPool, GrainForTargetsWork)
{
    EXPECT_EQ(grainFor(1.0, 1000.0), 1000);
    EXPECT_EQ(grainFor(500.0, 1000.0), 2);
    EXPECT_EQ(grainFor(1e9, 1000.0), 1);  // Huge items: chunk of one.
    EXPECT_GE(grainFor(0.0, 1000.0), 1);  // Degenerate weight.
}

TEST(ThreadPool, DestructionOrderingAfterRegions)
{
    // Regression for the shutdown contract the serve drain path
    // relies on: once parallelFor has returned, the pool is
    // quiescent and may be destroyed immediately — no grace period,
    // no lingering worker touching the dead region. Tight
    // create/use/destroy cycles flush out destructor races.
    for (int cycle = 0; cycle < 50; cycle++) {
        ThreadPool pool(4);
        std::atomic<int64_t> sum{0};
        pool.parallelFor(0, 256, 8, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; i++)
                sum.fetch_add(i, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 256 * 255 / 2);
        // Destructor runs here, immediately after the region.
    }
}

TEST(ThreadPool, DestructionOfIdlePool)
{
    // Pools that never ran a region must also tear down cleanly.
    for (int cycle = 0; cycle < 50; cycle++)
        ThreadPool pool(8);
}

TEST(ThreadPool, SerialScopeForcesInlineExecution)
{
    ThreadPool pool(4);
    EXPECT_FALSE(ThreadPool::inParallelRegion());
    {
        ThreadPool::SerialScope serial;
        EXPECT_TRUE(ThreadPool::inParallelRegion());
        // Inside the scope every lane must run on the calling
        // thread: record the executing thread of each chunk.
        std::thread::id self = std::this_thread::get_id();
        std::atomic<bool> foreign{false};
        pool.parallelFor(0, 1000, 7, [&](int64_t, int64_t) {
            if (std::this_thread::get_id() != self)
                foreign.store(true);
        });
        EXPECT_FALSE(foreign.load());
    }
    EXPECT_FALSE(ThreadPool::inParallelRegion());
}

TEST(ThreadPool, SerialScopeNests)
{
    ThreadPool::SerialScope outer;
    {
        ThreadPool::SerialScope inner;
        EXPECT_TRUE(ThreadPool::inParallelRegion());
    }
    // The inner scope must restore, not clear, the region flag.
    EXPECT_TRUE(ThreadPool::inParallelRegion());
}

TEST(ThreadPool, ConcurrentSerialScopesStayIsolated)
{
    // Two threads under SerialScope issuing parallelFor at the same
    // time: both must run inline without touching the shared pool
    // (this is exactly the serve worker configuration).
    ThreadPool pool(4);
    auto worker = [&](std::vector<int64_t> *out) {
        ThreadPool::SerialScope serial;
        out->assign(2000, 0);
        pool.parallelFor(0, 2000, 13, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; i++)
                (*out)[static_cast<size_t>(i)] = i * 7;
        });
    };
    std::vector<int64_t> a, b;
    std::thread ta(worker, &a);
    std::thread tb(worker, &b);
    ta.join();
    tb.join();
    for (int64_t i = 0; i < 2000; i++) {
        ASSERT_EQ(a[static_cast<size_t>(i)], i * 7);
        ASSERT_EQ(b[static_cast<size_t>(i)], i * 7);
    }
}

TEST(ThreadPool, OversubscribedPoolStillCorrect)
{
    // Far more lanes than hardware threads: purely a correctness
    // check of the lane hand-off under heavy contention.
    ThreadPool pool(32);
    std::vector<int64_t> out(5000, 0);
    pool.parallelFor(0, 5000, 11, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; i++)
            out[static_cast<size_t>(i)] = i * 3;
    });
    for (int64_t i = 0; i < 5000; i++)
        EXPECT_EQ(out[static_cast<size_t>(i)], i * 3);
}

} // namespace
