/**
 * @file
 * In-place and fused elementwise ops: each must be bit-identical to
 * its allocating counterpart, safe under exact self-aliasing
 * (dst == src), and visible through every handle sharing the storage.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "tensor/fused.hh"
#include "tensor/ops.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace
{

using namespace nsbench;
using tensor::Tensor;

// Larger than one fused tile so the tiling path is exercised.
constexpr int64_t kN = tensor::kFuseTile * 2 + 513;

Tensor
randomTensor(uint64_t seed, float lo = -2.0f, float hi = 2.0f)
{
    util::Rng rng(seed);
    return Tensor::rand({kN}, rng, lo, hi);
}

void
expectBitIdentical(const Tensor &a, const Tensor &b)
{
    ASSERT_EQ(a.numel(), b.numel());
    auto pa = a.data();
    auto pb = b.data();
    for (size_t i = 0; i < pa.size(); i++)
        ASSERT_EQ(pa[i], pb[i]) << "element " << i;
}

TEST(InPlaceOpsTest, BinaryOpsMatchAllocatingForms)
{
    Tensor a = randomTensor(1);
    Tensor b = randomTensor(2);

    struct Case
    {
        const char *name;
        void (*inplace)(Tensor &, const Tensor &);
        Tensor (*alloc)(const Tensor &, const Tensor &);
    };
    const Case cases[] = {
        {"add", tensor::addInPlace, tensor::add},
        {"sub", tensor::subInPlace, tensor::sub},
        {"mul", tensor::mulInPlace, tensor::mul},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        Tensor expected = c.alloc(a, b);
        Tensor dst = a.clone();
        c.inplace(dst, b);
        expectBitIdentical(dst, expected);
    }
}

TEST(InPlaceOpsTest, ScalarAndUnaryOpsMatchAllocatingForms)
{
    Tensor a = randomTensor(3);

    Tensor dst = a.clone();
    tensor::addScalarInPlace(dst, 0.75f);
    expectBitIdentical(dst, tensor::addScalar(a, 0.75f));

    dst = a.clone();
    tensor::mulScalarInPlace(dst, -1.5f);
    expectBitIdentical(dst, tensor::mulScalar(a, -1.5f));

    dst = a.clone();
    tensor::reluInPlace(dst);
    expectBitIdentical(dst, tensor::relu(a));

    dst = a.clone();
    tensor::clampInPlace(dst, -0.5f, 0.5f);
    expectBitIdentical(dst, tensor::clamp(a, -0.5f, 0.5f));
}

TEST(InPlaceOpsTest, ExactSelfAliasingIsSafe)
{
    Tensor a = randomTensor(4);

    Tensor dst = a.clone();
    tensor::addInPlace(dst, dst); // dst == src exactly
    expectBitIdentical(dst, tensor::add(a, a));

    dst = a.clone();
    tensor::mulInPlace(dst, dst);
    expectBitIdentical(dst, tensor::mul(a, a));

    dst = a.clone();
    tensor::subInPlace(dst, dst);
    expectBitIdentical(dst, tensor::sub(a, a));
}

TEST(InPlaceOpsTest, SubScaledMatchesMulThenSub)
{
    // The SGD step: dst -= s * src, deliberately mul-then-sub (two
    // roundings) so it stays bit-identical to the composed ops — an
    // FMA would round once and drift.
    Tensor w = randomTensor(5);
    Tensor g = randomTensor(6);
    constexpr float lr = 0.037f;

    Tensor expected = tensor::sub(w, tensor::mulScalar(g, lr));
    Tensor dst = w.clone();
    tensor::subScaledInPlace(dst, g, lr);
    expectBitIdentical(dst, expected);
}

TEST(InPlaceOpsTest, WritesVisibleThroughSharingHandles)
{
    Tensor a = Tensor::ones({kN});
    Tensor view = a.reshaped({kN, 1}).reshaped({kN});
    tensor::addScalarInPlace(a, 1.0f);
    // reshaped() shares storage; the in-place write is visible.
    EXPECT_EQ(view.data()[0], 2.0f);
    EXPECT_EQ(view.data()[static_cast<size_t>(kN - 1)], 2.0f);
}

TEST(InPlaceOpsTest, ShapeMismatchPanics)
{
    Tensor a = Tensor::ones({8});
    Tensor b = Tensor::ones({9});
    EXPECT_DEATH(tensor::addInPlace(a, b), "shape");
}

TEST(FusedMapTest, MatchesComposedKernelChain)
{
    // out = (1 - a) + a * b, fused, versus the composed allocating
    // ops. 1 - a == 1 + (-a) exactly in IEEE, so the fused kernel
    // sequence must be bit-identical.
    Tensor a = randomTensor(7, 0.0f, 1.0f);
    Tensor b = randomTensor(8, 0.0f, 1.0f);

    Tensor expected = tensor::add(
        tensor::addScalar(tensor::mulScalar(a, -1.0f), 1.0f),
        tensor::mul(a, b));

    Tensor fused = Tensor::uninitialized({kN});
    tensor::fusedMap(
        "test_fused_implies", fused, a, b, 3.0,
        [](const float *pa, const float *pb, float *po,
           float *scratch, int64_t n) {
            util::simd::mul(pa, pb, scratch, n);
            util::simd::negate(pa, po, n);
            util::simd::addScalar(po, 1.0f, po, n);
            util::simd::add(po, scratch, po, n);
        });
    expectBitIdentical(fused, expected);
}

TEST(FusedMapTest, OutputMayAliasInput)
{
    Tensor a = randomTensor(9);
    Tensor b = randomTensor(10);
    Tensor expected = tensor::add(a, b);

    Tensor dst = a.clone();
    tensor::fusedMap(
        "test_fused_alias", dst, dst, b, 1.0,
        [](const float *pa, const float *pb, float *po,
           float * /*scratch*/, int64_t n) {
            util::simd::add(pa, pb, po, n);
        });
    expectBitIdentical(dst, expected);
}

TEST(FusedMapTest, UnaryVariantMatchesComposedOps)
{
    // 1 - s * (1 - s): the LTN consistency axiom shape.
    Tensor s = randomTensor(11, 0.0f, 1.0f);
    Tensor one_minus =
        tensor::addScalar(tensor::mulScalar(s, -1.0f), 1.0f);
    Tensor expected = tensor::addScalar(
        tensor::mulScalar(tensor::mul(s, one_minus), -1.0f), 1.0f);

    Tensor fused = Tensor::uninitialized({kN});
    tensor::fusedMapUnary(
        "test_fused_consistency", fused, s, 3.0,
        [](const float *pa, float *po, float *scratch, int64_t n) {
            util::simd::negate(pa, scratch, n);
            util::simd::addScalar(scratch, 1.0f, scratch, n);
            util::simd::mul(pa, scratch, scratch, n);
            util::simd::negate(scratch, po, n);
            util::simd::addScalar(po, 1.0f, po, n);
        });
    expectBitIdentical(fused, expected);
}

} // namespace
