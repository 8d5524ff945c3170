#include <gtest/gtest.h>

#include "core/profiler.hh"
#include "tensor/ops.hh"
#include "util/rng.hh"

namespace
{

using namespace nsbench::tensor;
using nsbench::util::Rng;

TEST(Conv2d, IdentityKernel)
{
    // 1x1 kernel with weight 1 reproduces the input.
    Tensor input({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
    Tensor weight = Tensor::ones({1, 1, 1, 1});
    Tensor out = conv2d(input, weight, Tensor());
    ASSERT_EQ(out.shape(), (Shape{1, 1, 3, 3}));
    for (int64_t i = 0; i < 9; i++)
        EXPECT_EQ(out.flat(i), input.flat(i));
}

TEST(Conv2d, BoxFilterKnownValues)
{
    Tensor input({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
    Tensor weight = Tensor::ones({1, 1, 2, 2});
    Tensor out = conv2d(input, weight, Tensor());
    ASSERT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
    EXPECT_EQ(out(0, 0, 0, 0), 12.0f); // 1+2+4+5
    EXPECT_EQ(out(0, 0, 0, 1), 16.0f);
    EXPECT_EQ(out(0, 0, 1, 0), 24.0f);
    EXPECT_EQ(out(0, 0, 1, 1), 28.0f);
}

TEST(Conv2d, PaddingGrowsOutput)
{
    Tensor input = Tensor::ones({1, 1, 3, 3});
    Tensor weight = Tensor::ones({1, 1, 3, 3});
    Tensor out = conv2d(input, weight, Tensor(), 1, 1);
    ASSERT_EQ(out.shape(), (Shape{1, 1, 3, 3}));
    EXPECT_EQ(out(0, 0, 1, 1), 9.0f); // full overlap at center
    EXPECT_EQ(out(0, 0, 0, 0), 4.0f); // corner sees 2x2
}

TEST(Conv2d, StrideShrinksOutput)
{
    Tensor input = Tensor::ones({1, 1, 4, 4});
    Tensor weight = Tensor::ones({1, 1, 2, 2});
    Tensor out = conv2d(input, weight, Tensor(), 2, 0);
    ASSERT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
    EXPECT_EQ(out(0, 0, 0, 0), 4.0f);
}

TEST(Conv2d, MultiChannelAccumulatesAndBias)
{
    Tensor input({1, 2, 2, 2}, {1, 1, 1, 1, 2, 2, 2, 2});
    Tensor weight = Tensor::ones({3, 2, 2, 2});
    Tensor bias({3}, {0.0f, 10.0f, 100.0f});
    Tensor out = conv2d(input, weight, bias);
    ASSERT_EQ(out.shape(), (Shape{1, 3, 1, 1}));
    EXPECT_EQ(out(0, 0, 0, 0), 12.0f); // 4*1 + 4*2
    EXPECT_EQ(out(0, 1, 0, 0), 22.0f);
    EXPECT_EQ(out(0, 2, 0, 0), 112.0f);
}

TEST(Conv2d, BatchIndependence)
{
    Rng rng(2);
    Tensor a = Tensor::randn({1, 1, 4, 4}, rng);
    Tensor b = Tensor::randn({1, 1, 4, 4}, rng);
    Tensor both({2, 1, 4, 4});
    for (int64_t i = 0; i < 16; i++) {
        both.flat(i) = a.flat(i);
        both.flat(16 + i) = b.flat(i);
    }
    Tensor weight = Tensor::randn({2, 1, 3, 3}, rng);
    Tensor out_both = conv2d(both, weight, Tensor());
    Tensor out_a = conv2d(a, weight, Tensor());
    for (int64_t i = 0; i < out_a.numel(); i++)
        EXPECT_NEAR(out_both.flat(i), out_a.flat(i), 1e-5);
}

TEST(Conv2d, FlopAccounting)
{
    auto &prof = nsbench::core::globalProfiler();
    prof.reset();
    Tensor input = Tensor::ones({1, 2, 5, 5});
    Tensor weight = Tensor::ones({3, 2, 3, 3});
    conv2d(input, weight, Tensor());
    auto stats = prof.categoryTotals(
        nsbench::core::Phase::Untagged,
        nsbench::core::OpCategory::Convolution);
    EXPECT_EQ(stats.invocations, 1u);
    // out 3x3x3, each output element does 2*3*3 MACs = 18 flops*... :
    // flops = 2 * N*O*OH*OW * C*KH*KW = 2 * (1*3*3*3) * (2*3*3)
    EXPECT_DOUBLE_EQ(stats.flops, 2.0 * 27 * 18);
    prof.reset();
}

TEST(MaxPool2d, PicksWindowMax)
{
    Tensor input({1, 1, 4, 4},
                 {1, 2, 3, 4,
                  5, 6, 7, 8,
                  9, 10, 11, 12,
                  13, 14, 15, 16});
    Tensor out = maxPool2d(input, 2, 2);
    ASSERT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
    EXPECT_EQ(out(0, 0, 0, 0), 6.0f);
    EXPECT_EQ(out(0, 0, 0, 1), 8.0f);
    EXPECT_EQ(out(0, 0, 1, 0), 14.0f);
    EXPECT_EQ(out(0, 0, 1, 1), 16.0f);
}

TEST(AvgPool2d, AveragesWindow)
{
    Tensor input({1, 1, 2, 2}, {1, 3, 5, 7});
    Tensor out = avgPool2d(input, 2, 2);
    ASSERT_EQ(out.shape(), (Shape{1, 1, 1, 1}));
    EXPECT_EQ(out(0, 0, 0, 0), 4.0f);
}

TEST(Conv2dDeath, ChannelMismatch)
{
    Tensor input({1, 2, 4, 4});
    Tensor weight({1, 3, 3, 3});
    EXPECT_DEATH(conv2d(input, weight, Tensor()), "channel mismatch");
}

TEST(Conv2dDeath, KernelTooLarge)
{
    Tensor input({1, 1, 2, 2});
    Tensor weight({1, 1, 3, 3});
    EXPECT_DEATH(conv2d(input, weight, Tensor()), "kernel exceeds");
}

// (3 - 4) / 2 truncates to 0, so a check on the divided extent would
// accept these shapes with one output row and column.
TEST(Conv2dDeath, KernelTooLargeAtStrideTwo)
{
    Tensor input = Tensor::ones({1, 1, 3, 3});
    Tensor weight = Tensor::ones({1, 1, 4, 4});
    EXPECT_DEATH(conv2d(input, weight, Tensor(), 2, 0),
                 "kernel exceeds");
}

TEST(MaxPool2dDeath, KernelTooLargeAtStrideTwo)
{
    Tensor input = Tensor::ones({1, 1, 3, 3});
    EXPECT_DEATH(maxPool2d(input, 4, 2), "kernel exceeds");
}

} // namespace
