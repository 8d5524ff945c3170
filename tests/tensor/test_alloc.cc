/**
 * @file
 * Tensor storage accounting: the profiler tracks live and peak
 * storage in logical tensor bytes, and counts one alloc and one free
 * per storage buffer.
 */

#include <gtest/gtest.h>

#include "core/profiler.hh"
#include "tensor/tensor.hh"

namespace
{

using namespace nsbench;
using tensor::Tensor;

/** Starts and leaves each test with a clean global profiler. */
class AllocTest : public testing::Test
{
  protected:
    void SetUp() override { core::globalProfiler().reset(); }
    void TearDown() override { core::globalProfiler().reset(); }
};

TEST_F(AllocTest, PeakTracksLiveLogicalBytes)
{
    auto &prof = core::globalProfiler();

    // Two sequential short-lived tensors: the live high-water mark is
    // ONE tensor's logical size.
    { Tensor a({1024}); }
    { Tensor b({1024}); }
    EXPECT_EQ(prof.peakBytes(), 1024u * sizeof(float));
    EXPECT_EQ(prof.currentBytes(), 0u);

    // Logical bytes: 100 floats = 400 bytes.
    prof.reset();
    { Tensor c({100}); }
    EXPECT_EQ(prof.peakBytes(), 400u);
}

TEST_F(AllocTest, ChurnCountsOneAllocAndFreePerTensor)
{
    { Tensor t({100}); }

    core::MemChurn churn = core::globalProfiler().memChurn();
    EXPECT_EQ(churn.allocs, 1u);
    EXPECT_EQ(churn.frees, 1u);
    EXPECT_EQ(churn.freshAllocs(), 1u);
}

} // namespace
