#include <gtest/gtest.h>

#include "core/profiler.hh"
#include "core/report.hh"
#include "core/sparsity.hh"

namespace
{

using namespace nsbench::core;

class ProfilerTest : public testing::Test
{
  protected:
    Profiler prof;
};

TEST_F(ProfilerTest, StartsEmpty)
{
    EXPECT_EQ(prof.totals().invocations, 0u);
    EXPECT_EQ(prof.currentPhase(), Phase::Untagged);
    EXPECT_EQ(prof.currentBytes(), 0u);
    EXPECT_EQ(prof.peakBytes(), 0u);
}

TEST_F(ProfilerTest, RecordsOpInCurrentPhase)
{
    {
        PhaseScope scope(Phase::Neural, "frontend", prof);
        prof.recordOp("matmul", OpCategory::MatMul, 0.5, 100.0, 40.0,
                      20.0);
    }
    OpStats neural = prof.phaseTotals(Phase::Neural);
    EXPECT_EQ(neural.invocations, 1u);
    EXPECT_DOUBLE_EQ(neural.seconds, 0.5);
    EXPECT_DOUBLE_EQ(neural.flops, 100.0);
    EXPECT_DOUBLE_EQ(neural.bytes(), 60.0);
    EXPECT_EQ(prof.phaseTotals(Phase::Symbolic).invocations, 0u);
}

TEST_F(ProfilerTest, PhaseNesting)
{
    PhaseScope outer(Phase::Neural, "outer", prof);
    EXPECT_EQ(prof.currentPhase(), Phase::Neural);
    EXPECT_EQ(prof.currentRegion(), "outer");
    {
        PhaseScope inner(Phase::Symbolic, "inner", prof);
        EXPECT_EQ(prof.currentPhase(), Phase::Symbolic);
        EXPECT_EQ(prof.currentRegion(), "inner");
        prof.recordOp("bind", OpCategory::VectorElementwise, 0.1, 1.0,
                      1.0, 1.0);
    }
    EXPECT_EQ(prof.currentPhase(), Phase::Neural);
    EXPECT_EQ(prof.phaseTotals(Phase::Symbolic).invocations, 1u);
    EXPECT_EQ(prof.regionTotals("inner").invocations, 1u);
    EXPECT_EQ(prof.regionTotals("outer").invocations, 0u);
}

TEST_F(ProfilerTest, CategoryTotalsAreSliced)
{
    PhaseScope scope(Phase::Symbolic, "backend", prof);
    prof.recordOp("bind", OpCategory::VectorElementwise, 0.2, 4.0, 8.0,
                  8.0);
    prof.recordOp("bundle", OpCategory::VectorElementwise, 0.3, 4.0,
                  8.0, 8.0);
    prof.recordOp("rule_query", OpCategory::Other, 0.1, 0.0, 0.0, 0.0);

    OpStats vec =
        prof.categoryTotals(Phase::Symbolic,
                            OpCategory::VectorElementwise);
    EXPECT_EQ(vec.invocations, 2u);
    EXPECT_DOUBLE_EQ(vec.seconds, 0.5);
    OpStats other = prof.categoryTotals(Phase::Symbolic,
                                        OpCategory::Other);
    EXPECT_EQ(other.invocations, 1u);
}

TEST_F(ProfilerTest, OpsByTimeSortedAndMerged)
{
    PhaseScope scope(Phase::Neural, "x", prof);
    prof.recordOp("small", OpCategory::MatMul, 0.1, 1, 1, 1);
    prof.recordOp("big", OpCategory::MatMul, 1.0, 1, 1, 1);
    prof.recordOp("small", OpCategory::MatMul, 0.2, 1, 1, 1);

    auto ops = prof.opsByTime();
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0].name, "big");
    EXPECT_EQ(ops[1].name, "small");
    EXPECT_EQ(ops[1].stats.invocations, 2u);
    EXPECT_NEAR(ops[1].stats.seconds, 0.3, 1e-12);
}

TEST_F(ProfilerTest, DisabledRecordsNothing)
{
    prof.setEnabled(false);
    prof.recordOp("x", OpCategory::Other, 1.0, 1, 1, 1);
    prof.recordAlloc(100);
    prof.recordSparsity("s", 5, 10);
    EXPECT_EQ(prof.totals().invocations, 0u);
    EXPECT_EQ(prof.peakBytes(), 0u);
    EXPECT_TRUE(prof.sparsityRecords().empty());
}

TEST_F(ProfilerTest, MemoryPeaksPerPhase)
{
    {
        PhaseScope scope(Phase::Neural, "alloc", prof);
        prof.recordAlloc(1000);
    }
    {
        PhaseScope scope(Phase::Symbolic, "alloc2", prof);
        prof.recordAlloc(500);
        EXPECT_EQ(prof.currentBytes(), 1500u);
        prof.recordFree(1000);
    }
    EXPECT_EQ(prof.peakBytes(), 1500u);
    EXPECT_EQ(prof.peakBytesIn(Phase::Neural), 1000u);
    EXPECT_EQ(prof.peakBytesIn(Phase::Symbolic), 1500u);
    EXPECT_EQ(prof.allocatedBytesIn(Phase::Neural), 1000u);
    EXPECT_EQ(prof.allocatedBytesIn(Phase::Symbolic), 500u);
    EXPECT_EQ(prof.currentBytes(), 500u);
}

TEST_F(ProfilerTest, FreeClampsAtZero)
{
    prof.recordAlloc(10);
    prof.recordFree(100);
    EXPECT_EQ(prof.currentBytes(), 0u);
}

TEST_F(ProfilerTest, SparsityAccumulates)
{
    PhaseScope scope(Phase::Symbolic, "s", prof);
    prof.recordSparsity("pmf_to_vsa", 90, 100);
    prof.recordSparsity("pmf_to_vsa", 95, 100);
    auto recs = prof.sparsityRecords();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].zeros, 185u);
    EXPECT_EQ(recs[0].total, 200u);
    EXPECT_DOUBLE_EQ(recs[0].ratio(), 0.925);
    EXPECT_EQ(recs[0].phase, Phase::Symbolic);
}

TEST_F(ProfilerTest, ResetClearsEverything)
{
    prof.recordOp("x", OpCategory::Other, 1.0, 1, 1, 1);
    prof.recordAlloc(128);
    prof.recordSparsity("s", 1, 2);
    prof.reset();
    EXPECT_EQ(prof.totals().invocations, 0u);
    EXPECT_EQ(prof.peakBytes(), 0u);
    EXPECT_TRUE(prof.sparsityRecords().empty());
    EXPECT_TRUE(prof.regions().empty());
}

TEST_F(ProfilerTest, ScopedOpRecordsOnDestruction)
{
    {
        ScopedOp op("timed", OpCategory::MatMul, prof);
        op.setFlops(42.0);
        op.setBytesRead(8.0);
        op.setBytesWritten(4.0);
    }
    auto ops = prof.opsByTime();
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].name, "timed");
    EXPECT_DOUBLE_EQ(ops[0].stats.flops, 42.0);
    EXPECT_GE(ops[0].stats.seconds, 0.0);
}

TEST_F(ProfilerTest, PhaseSplitHelper)
{
    {
        PhaseScope n(Phase::Neural, "n", prof);
        prof.recordOp("a", OpCategory::MatMul, 3.0, 0, 0, 0);
    }
    {
        PhaseScope s(Phase::Symbolic, "s", prof);
        prof.recordOp("b", OpCategory::Other, 1.0, 0, 0, 0);
    }
    PhaseSplit split = phaseSplit(prof);
    EXPECT_DOUBLE_EQ(split.total(), 4.0);
    EXPECT_DOUBLE_EQ(split.neuralFraction(), 0.75);
    EXPECT_DOUBLE_EQ(split.symbolicFraction(), 0.25);
}

TEST_F(ProfilerTest, OpIntensity)
{
    OpStats s;
    s.flops = 100.0;
    s.bytesRead = 40.0;
    s.bytesWritten = 10.0;
    EXPECT_DOUBLE_EQ(s.opIntensity(), 2.0);
    OpStats zero;
    EXPECT_DOUBLE_EQ(zero.opIntensity(), 0.0);
}

TEST_F(ProfilerTest, SpanSparsityHelper)
{
    std::vector<float> v{0.0f, 1.0f, 0.0f, 0.0f};
    EXPECT_EQ(nsbench::core::countZeros(std::span<const float>(v)), 3u);
    recordSpanSparsity("probe", std::span<const float>(v), 0.0f, prof);
    auto recs = prof.sparsityRecords();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].zeros, 3u);
}

TEST_F(ProfilerTest, ReportTablesHaveRows)
{
    {
        PhaseScope n(Phase::Neural, "n", prof);
        prof.recordOp("conv2d", OpCategory::Convolution, 1.0, 10, 4,
                      4);
        prof.recordAlloc(64);
    }
    EXPECT_EQ(phaseBreakdownTable(prof).rows(), 1u);
    EXPECT_EQ(categoryBreakdownTable(prof, Phase::Neural).rows(), 1u);
    EXPECT_EQ(topOpsTable(prof, 10).rows(), 1u);
    EXPECT_EQ(memoryTable(prof).rows(), 1u);
    EXPECT_EQ(regionTable(prof).rows(), 1u);
}

TEST(ProfilerDeath, PopWithoutPushPanics)
{
    Profiler p;
    EXPECT_DEATH(p.popPhase(), "underflow");
}

TEST(ProfilerDeath, SparsityZerosExceedTotal)
{
    Profiler p;
    EXPECT_DEATH(p.recordSparsity("s", 5, 2), "exceed");
}

} // namespace
