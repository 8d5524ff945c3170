#include <gtest/gtest.h>

#include "core/profiler.hh"
#include "tensor/ops.hh"
#include "util/rng.hh"

namespace
{

using namespace nsbench::tensor;
using nsbench::util::Rng;

TEST(Transform, Transpose2d)
{
    Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor t = transpose2d(a);
    ASSERT_EQ(t.shape(), (Shape{3, 2}));
    EXPECT_EQ(t(0, 0), 1.0f);
    EXPECT_EQ(t(0, 1), 4.0f);
    EXPECT_EQ(t(2, 1), 6.0f);
}

TEST(Transform, TransposeTwiceIsIdentity)
{
    Rng rng(1);
    Tensor a = Tensor::randn({5, 7}, rng);
    Tensor b = transpose2d(transpose2d(a));
    for (int64_t i = 0; i < a.numel(); i++)
        EXPECT_EQ(a.flat(i), b.flat(i));
}

TEST(Transform, PermuteMatchesTransposeOnRank2)
{
    Rng rng(2);
    Tensor a = Tensor::randn({3, 4}, rng);
    Tensor p = permute(a, {1, 0});
    Tensor t = transpose2d(a);
    ASSERT_EQ(p.shape(), t.shape());
    for (int64_t i = 0; i < p.numel(); i++)
        EXPECT_EQ(p.flat(i), t.flat(i));
}

TEST(Transform, PermuteRank3)
{
    // [2,3,4] -> [4,2,3]
    Rng rng(3);
    Tensor a = Tensor::randn({2, 3, 4}, rng);
    Tensor p = permute(a, {2, 0, 1});
    ASSERT_EQ(p.shape(), (Shape{4, 2, 3}));
    for (int64_t i = 0; i < 2; i++) {
        for (int64_t j = 0; j < 3; j++) {
            for (int64_t k = 0; k < 4; k++)
                EXPECT_EQ(p(k, i, j), a(i, j, k));
        }
    }
}

TEST(Transform, PermuteIdentity)
{
    Rng rng(4);
    Tensor a = Tensor::randn({2, 2, 2}, rng);
    Tensor p = permute(a, {0, 1, 2});
    for (int64_t i = 0; i < a.numel(); i++)
        EXPECT_EQ(p.flat(i), a.flat(i));
}

TEST(Transform, ConcatAxis0)
{
    Tensor a({1, 2}, {1, 2});
    Tensor b({2, 2}, {3, 4, 5, 6});
    Tensor c = concat({a, b}, 0);
    ASSERT_EQ(c.shape(), (Shape{3, 2}));
    EXPECT_EQ(c(0, 1), 2.0f);
    EXPECT_EQ(c(2, 1), 6.0f);
}

TEST(Transform, ConcatAxis1)
{
    Tensor a({2, 1}, {1, 2});
    Tensor b({2, 2}, {3, 4, 5, 6});
    Tensor c = concat({a, b}, 1);
    ASSERT_EQ(c.shape(), (Shape{2, 3}));
    EXPECT_EQ(c(0, 0), 1.0f);
    EXPECT_EQ(c(0, 1), 3.0f);
    EXPECT_EQ(c(0, 2), 4.0f);
    EXPECT_EQ(c(1, 0), 2.0f);
    EXPECT_EQ(c(1, 2), 6.0f);
}

TEST(Transform, SliceMiddle)
{
    Tensor a({4, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
    Tensor s = slice(a, 0, 1, 2);
    ASSERT_EQ(s.shape(), (Shape{2, 2}));
    EXPECT_EQ(s(0, 0), 3.0f);
    EXPECT_EQ(s(1, 1), 6.0f);
}

TEST(Transform, SliceLastAxis)
{
    Tensor a({2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
    Tensor s = slice(a, 1, 2, 2);
    ASSERT_EQ(s.shape(), (Shape{2, 2}));
    EXPECT_EQ(s(0, 0), 3.0f);
    EXPECT_EQ(s(1, 1), 8.0f);
}

TEST(Transform, SliceConcatRoundTrip)
{
    Rng rng(5);
    Tensor a = Tensor::randn({6, 3}, rng);
    Tensor top = slice(a, 0, 0, 2);
    Tensor rest = slice(a, 0, 2, 4);
    Tensor back = concat({top, rest}, 0);
    for (int64_t i = 0; i < a.numel(); i++)
        EXPECT_EQ(back.flat(i), a.flat(i));
}

TEST(Transform, GatherRows)
{
    Tensor a({3, 2}, {1, 2, 3, 4, 5, 6});
    Tensor g = gatherRows(a, {2, 0, 2});
    ASSERT_EQ(g.shape(), (Shape{3, 2}));
    EXPECT_EQ(g(0, 0), 5.0f);
    EXPECT_EQ(g(1, 0), 1.0f);
    EXPECT_EQ(g(2, 1), 6.0f);
}

TEST(Transform, MaskedSelect)
{
    Tensor a({4}, {10, 20, 30, 40});
    Tensor mask({4}, {1, 0, 0, 1});
    Tensor sel = maskedSelect(a, mask);
    ASSERT_EQ(sel.shape(), (Shape{2}));
    EXPECT_EQ(sel(0), 10.0f);
    EXPECT_EQ(sel(1), 40.0f);
}

TEST(Transform, MaskedSelectEmptyResult)
{
    Tensor a({2}, {1, 2});
    Tensor mask = Tensor::zeros({2});
    Tensor sel = maskedSelect(a, mask);
    EXPECT_EQ(sel.numel(), 0);
}

TEST(Transform, OneHot)
{
    Tensor oh = oneHot({2, 0}, 3);
    ASSERT_EQ(oh.shape(), (Shape{2, 3}));
    EXPECT_EQ(oh(0, 2), 1.0f);
    EXPECT_EQ(oh(0, 0), 0.0f);
    EXPECT_EQ(oh(1, 0), 1.0f);
}

TEST(Transform, CopyAndTransferAreDataMovement)
{
    auto &prof = nsbench::core::globalProfiler();
    prof.reset();
    Tensor a = Tensor::ones({16});
    Tensor d = transfer(a, "h2d");
    EXPECT_EQ(d.numel(), 16);
    auto stats = prof.categoryTotals(
        nsbench::core::Phase::Untagged,
        nsbench::core::OpCategory::DataMovement);
    EXPECT_EQ(stats.invocations, 1u);
    EXPECT_DOUBLE_EQ(stats.bytesRead, 16 * 4.0);
    prof.reset();
}

TEST(TransformDeath, BadPermutation)
{
    Tensor a({2, 3});
    EXPECT_DEATH(permute(a, {0, 0}), "invalid permutation");
    EXPECT_DEATH(permute(a, {0}), "rank mismatch");
}

TEST(TransformDeath, SliceOutOfBounds)
{
    Tensor a({3});
    EXPECT_DEATH(slice(a, 0, 2, 2), "out of bounds");
}

TEST(TransformDeath, GatherBadIndex)
{
    Tensor a({2, 2});
    EXPECT_DEATH(gatherRows(a, {3}), "out of range");
}

} // namespace
