/**
 * @file
 * Thread-safety of the profiler under the parallel runtime.
 *
 * The contract under test: FLOP, byte and invocation attribution is
 * exact — not merely approximate — when ops are recorded from pool
 * worker threads or any other thread, every recorded op is visible as
 * soon as recordOp returns, and a profiled run reports identical work
 * totals at every pool width.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "core/profiler.hh"
#include "core/taxonomy.hh"
#include "tensor/ops.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"
#include "util/threadpool.hh"

namespace
{

using namespace nsbench;
using core::OpCategory;
using core::OpStats;
using core::Phase;
using core::Profiler;
using nsbench::tensor::Tensor;
using nsbench::util::ThreadPool;

class ProfilerConcurrency : public testing::Test
{
  protected:
    ~ProfilerConcurrency() override
    {
        ThreadPool::setGlobalThreads(0);
    }
};

TEST_F(ProfilerConcurrency, ExactTotalsFromWorkerThreads)
{
    // 10'000 events recorded from inside a parallel region, mixed
    // across the calling thread and pool workers. Every single one
    // must land.
    for (int width : {1, 2, 4, 13}) {
        ThreadPool pool(width);
        Profiler prof;
        constexpr int64_t kEvents = 10000;
        pool.parallelFor(0, kEvents, 16, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; i++)
                prof.recordOp("synthetic", OpCategory::Other, 1e-9,
                              2.0, 8.0, 4.0);
        });
        // Every event applied under the profiler's lock before its
        // recordOp returned, so all are counted once parallelFor
        // returns.
        OpStats t = prof.totals();
        EXPECT_EQ(t.invocations, static_cast<uint64_t>(kEvents))
            << "width " << width;
        EXPECT_DOUBLE_EQ(t.flops, 2.0 * kEvents) << "width " << width;
        EXPECT_DOUBLE_EQ(t.bytesRead, 8.0 * kEvents)
            << "width " << width;
        EXPECT_DOUBLE_EQ(t.bytesWritten, 4.0 * kEvents)
            << "width " << width;

        auto ops = prof.opsByTime();
        ASSERT_EQ(ops.size(), 1u);
        EXPECT_EQ(ops[0].name, "synthetic");
        EXPECT_EQ(ops[0].stats.invocations,
                  static_cast<uint64_t>(kEvents));
    }
}

TEST_F(ProfilerConcurrency, WorkerOpsInheritOwnerPhase)
{
    ThreadPool pool(4);
    Profiler prof;
    prof.pushPhase(Phase::Symbolic, "cleanup");
    pool.parallelFor(0, 100, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; i++)
            prof.recordOp("sweep", OpCategory::MatMul, 1e-9, 10.0,
                          0.0, 0.0);
    });
    prof.popPhase();

    EXPECT_EQ(prof.phaseTotals(Phase::Symbolic).invocations, 100u);
    EXPECT_EQ(prof.phaseTotals(Phase::Neural).invocations, 0u);
    EXPECT_DOUBLE_EQ(prof.regionTotals("cleanup").flops, 1000.0);
    EXPECT_EQ(
        prof.categoryTotals(Phase::Symbolic, OpCategory::MatMul)
            .invocations,
        100u);
}

TEST_F(ProfilerConcurrency, ProfiledRunIdenticalAcrossWidths)
{
    // The acceptance bar from the runtime change: a profiled kernel
    // run reports identical FLOP/byte/invocation totals at width 1
    // and width 4 (seconds differ, of course).
    auto profiledRun = [](int width) {
        ThreadPool::setGlobalThreads(width);
        util::Rng rng(5);
        Tensor a = Tensor::randn({96, 96}, rng);
        Tensor b = Tensor::randn({96, 96}, rng);
        auto &prof = core::globalProfiler();
        prof.reset();
        Tensor c = tensor::matmul(a, b);
        Tensor d = tensor::relu(c);
        (void)tensor::sumAll(d);
        return prof.totals();
    };

    OpStats serial = profiledRun(1);
    OpStats parallel = profiledRun(4);
    core::globalProfiler().reset();

    EXPECT_EQ(parallel.invocations, serial.invocations);
    EXPECT_DOUBLE_EQ(parallel.flops, serial.flops);
    EXPECT_DOUBLE_EQ(parallel.bytesRead, serial.bytesRead);
    EXPECT_DOUBLE_EQ(parallel.bytesWritten, serial.bytesWritten);
    EXPECT_GT(serial.invocations, 0u);
}

TEST_F(ProfilerConcurrency, OpsFromAnyThreadAreVisibleAtOnce)
{
    // A thread that neither built nor reset the profiler records
    // ops: its own queries see them at once, and so does every other
    // thread once it has joined, with no flush in between.
    Profiler prof;
    prof.pushPhase(Phase::Neural, "outside");
    uint64_t seenByRecorder = 0;
    std::thread outsider([&] {
        for (int i = 0; i < 7; i++)
            prof.recordOp("outside", OpCategory::Other, 1e-9, 1.0,
                          0.0, 0.0);
        seenByRecorder = prof.totals().invocations;
    });
    outsider.join();
    prof.popPhase();
    EXPECT_EQ(seenByRecorder, 7u);
    EXPECT_EQ(prof.totals().invocations, 7u);
    EXPECT_EQ(prof.phaseTotals(Phase::Neural).invocations, 7u);
    EXPECT_DOUBLE_EQ(prof.regionTotals("outside").flops, 7.0);
}

TEST_F(ProfilerConcurrency, CopySnapshotsAggregates)
{
    Profiler prof;
    prof.recordOp("op", OpCategory::Other, 1e-9, 5.0, 0.0, 0.0);
    Profiler copy = prof;
    prof.recordOp("op", OpCategory::Other, 1e-9, 5.0, 0.0, 0.0);
    EXPECT_EQ(copy.totals().invocations, 1u);
    EXPECT_EQ(prof.totals().invocations, 2u);
}

} // namespace
