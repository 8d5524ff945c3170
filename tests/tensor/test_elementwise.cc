#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "core/profiler.hh"
#include "tensor/fused.hh"
#include "tensor/ops.hh"
#include "vsa/ops.hh"

namespace
{

using namespace nsbench::tensor;
using nsbench::core::globalProfiler;
using nsbench::core::OpCategory;
using nsbench::core::Phase;

TEST(Elementwise, BinaryOps)
{
    Tensor a({4}, {1, 2, 3, 4});
    Tensor b({4}, {4, 3, 2, 1});
    EXPECT_EQ(add(a, b).flat(0), 5.0f);
    EXPECT_EQ(sub(a, b).flat(0), -3.0f);
    EXPECT_EQ(mul(a, b).flat(1), 6.0f);
    EXPECT_EQ(div(a, b).flat(3), 4.0f);
}

TEST(Elementwise, ScalarOps)
{
    Tensor a({3}, {1, 2, 3});
    EXPECT_EQ(addScalar(a, 1.0f).flat(2), 4.0f);
    EXPECT_EQ(mulScalar(a, 2.0f).flat(2), 6.0f);
}

TEST(Elementwise, UnaryOps)
{
    Tensor a({4}, {-2, -0.5, 0.5, 2});
    Tensor r = relu(a);
    EXPECT_EQ(r.flat(0), 0.0f);
    EXPECT_EQ(r.flat(3), 2.0f);

    Tensor s = sigmoid(Tensor({1}, {0.0f}));
    EXPECT_NEAR(s.flat(0), 0.5f, 1e-6);

    EXPECT_NEAR(tanhOp(Tensor({1}, {1.0f})).flat(0), std::tanh(1.0f),
                1e-6);
    EXPECT_NEAR(expOp(Tensor({1}, {1.0f})).flat(0), std::exp(1.0f),
                1e-5);
    EXPECT_EQ(neg(a).flat(0), 2.0f);
    EXPECT_EQ(sign(a).flat(0), -1.0f);
    EXPECT_EQ(sign(Tensor({1}, {0.0f})).flat(0), 0.0f);
    Tensor c = clamp(a, -1.0f, 1.0f);
    EXPECT_EQ(c.flat(0), -1.0f);
    EXPECT_EQ(c.flat(3), 1.0f);
}

TEST(Elementwise, FullReductions)
{
    Tensor a({2, 2}, {1, 2, 3, 4});
    EXPECT_EQ(sumAll(a), 10.0f);
    EXPECT_EQ(meanAll(a), 2.5f);
    EXPECT_EQ(argmaxAll(a), 3);
}

TEST(Elementwise, AxisReductions)
{
    Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor s0 = sumAxis(a, 0);
    ASSERT_EQ(s0.shape(), (Shape{3}));
    EXPECT_EQ(s0(0), 5.0f);
    EXPECT_EQ(s0(2), 9.0f);

    Tensor s1 = sumAxis(a, 1);
    ASSERT_EQ(s1.shape(), (Shape{2}));
    EXPECT_EQ(s1(0), 6.0f);
    EXPECT_EQ(s1(1), 15.0f);

    Tensor m1 = maxAxis(a, 1);
    EXPECT_EQ(m1(0), 3.0f);
    EXPECT_EQ(m1(1), 6.0f);
}

TEST(Elementwise, AxisReductionRank3)
{
    // shape [2,2,2]: values 1..8
    Tensor a({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
    Tensor s1 = sumAxis(a, 1);
    ASSERT_EQ(s1.shape(), (Shape{2, 2}));
    EXPECT_EQ(s1(0, 0), 4.0f);  // 1+3
    EXPECT_EQ(s1(0, 1), 6.0f);  // 2+4
    EXPECT_EQ(s1(1, 0), 12.0f); // 5+7
    EXPECT_EQ(s1(1, 1), 14.0f); // 6+8
}

TEST(Elementwise, SoftmaxRowsSumToOne)
{
    Tensor a({2, 3}, {1, 2, 3, -1, 0, 1});
    Tensor s = softmax(a);
    for (int64_t r = 0; r < 2; r++) {
        float sum = 0.0f;
        for (int64_t c = 0; c < 3; c++) {
            sum += s(r, c);
            EXPECT_GT(s(r, c), 0.0f);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-6);
    }
    // Monotone in the logits.
    EXPECT_LT(s(0, 0), s(0, 2));
}

TEST(Elementwise, SoftmaxNumericallyStable)
{
    Tensor a({1, 2}, {1000.0f, 1001.0f});
    Tensor s = softmax(a);
    EXPECT_FALSE(std::isnan(s(0, 0)));
    EXPECT_NEAR(s(0, 0) + s(0, 1), 1.0f, 1e-6);
}

TEST(Elementwise, LogSoftmaxMatchesLogOfSoftmax)
{
    Tensor a({1, 4}, {0.3f, -1.2f, 2.0f, 0.0f});
    Tensor ls = logSoftmax(a);
    Tensor s = softmax(a);
    for (int64_t c = 0; c < 4; c++)
        EXPECT_NEAR(ls(0, c), std::log(s(0, c)), 1e-5);
}

TEST(Elementwise, NormalizeSum)
{
    Tensor a({2, 2}, {1, 3, 2, 2});
    Tensor n = normalizeSum(a);
    EXPECT_NEAR(n(0, 0), 0.25f, 1e-6);
    EXPECT_NEAR(n(0, 1), 0.75f, 1e-6);
    EXPECT_NEAR(n(1, 0), 0.5f, 1e-6);
}

TEST(Elementwise, NormalizeL2)
{
    Tensor a({1, 2}, {3, 4});
    Tensor n = normalizeL2(a);
    EXPECT_NEAR(n(0, 0), 0.6f, 1e-5);
    EXPECT_NEAR(n(0, 1), 0.8f, 1e-5);
}

/** One op call and the attribution it must record. */
struct OpPin
{
    const char *name;
    OpCategory category;
    double flops;
    double bytesRead;
    double bytesWritten;
    std::function<void()> call;
};

TEST(Elementwise, ProfilerAccounting)
{
    auto &prof = globalProfiler();
    prof.reset();
    {
        nsbench::core::PhaseScope scope(Phase::Symbolic, "test");
        Tensor a = Tensor::ones({100});
        Tensor b = Tensor::ones({100});
        Tensor c = add(a, b);
        (void)c;
    }
    auto stats = prof.categoryTotals(Phase::Symbolic,
                                     OpCategory::VectorElementwise);
    EXPECT_EQ(stats.invocations, 1u);
    EXPECT_DOUBLE_EQ(stats.flops, 100.0);
    EXPECT_DOUBLE_EQ(stats.bytesRead, 800.0);
    EXPECT_DOUBLE_EQ(stats.bytesWritten, 400.0);

    // Pins name, category, invocations, FLOPs and bytes of every
    // element-wise map and full reduction on an operand longer than
    // two fused tiles plus a tail.
    constexpr int64_t n = 2 * kFuseTile + 37;
    constexpr double e = static_cast<double>(n);
    constexpr double f = sizeof(float);
    Tensor a = Tensor::full({n}, 0.5f);
    Tensor b = Tensor::full({n}, 2.0f);
    Tensor dst = Tensor::full({n}, 1.5f);
    constexpr auto ew = OpCategory::VectorElementwise;
    const std::vector<OpPin> pins = {
        {"add", ew, e, 2 * e * f, e * f, [&] { add(a, b); }},
        {"sub", ew, e, 2 * e * f, e * f, [&] { sub(a, b); }},
        {"mul", ew, e, 2 * e * f, e * f, [&] { mul(a, b); }},
        {"div", ew, e, 2 * e * f, e * f, [&] { div(a, b); }},
        {"add_scalar", ew, e, e * f, e * f, [&] { addScalar(a, 1); }},
        {"mul_scalar", ew, e, e * f, e * f, [&] { mulScalar(a, 2); }},
        {"relu", ew, e, e * f, e * f, [&] { relu(a); }},
        {"sigmoid", ew, 4 * e, e * f, e * f, [&] { sigmoid(a); }},
        {"tanh", ew, 4 * e, e * f, e * f, [&] { tanhOp(a); }},
        {"exp", ew, 2 * e, e * f, e * f, [&] { expOp(a); }},
        {"neg", ew, e, e * f, e * f, [&] { neg(a); }},
        {"sign", ew, e, e * f, e * f, [&] { sign(a); }},
        {"clamp", ew, e, e * f, e * f, [&] { clamp(a, 0, 1); }},
        {"pow", ew, 4 * e, e * f, e * f, [&] { powOp(a, 1.5f); }},
        {"add_inplace", ew, e, 2 * e * f, e * f,
         [&] { addInPlace(dst, a); }},
        {"sub_inplace", ew, e, 2 * e * f, e * f,
         [&] { subInPlace(dst, a); }},
        {"mul_inplace", ew, e, 2 * e * f, e * f,
         [&] { mulInPlace(dst, a); }},
        {"add_scalar_inplace", ew, e, e * f, e * f,
         [&] { addScalarInPlace(dst, 1); }},
        {"mul_scalar_inplace", ew, e, e * f, e * f,
         [&] { mulScalarInPlace(dst, 2); }},
        {"relu_inplace", ew, e, e * f, e * f, [&] { reluInPlace(dst); }},
        {"clamp_inplace", ew, e, e * f, e * f,
         [&] { clampInPlace(dst, 0, 1); }},
        {"sub_scaled_inplace", ew, 2 * e, 2 * e * f, e * f,
         [&] { subScaledInPlace(dst, a, 0.5f); }},
        {"vsa_bind", ew, e, 2 * e * f, e * f,
         [&] { nsbench::vsa::bind(a, b); }},
        {"vsa_unbind", ew, e, 2 * e * f, e * f,
         [&] { nsbench::vsa::unbind(a, b); }},
        {"vsa_majority", ew, e, e * f, e * f,
         [&] { nsbench::vsa::bundleMajority({a, b, dst}); }},
        {"sum", ew, e, e * f, f, [&] { sumAll(a); }},
        {"argmax", ew, e, e * f, f, [&] { argmaxAll(a); }},
        {"dot", OpCategory::MatMul, 2 * e, 2 * e * f, f,
         [&] { dot(a, b); }},
    };
    for (const OpPin &pin : pins) {
        prof.reset();
        {
            nsbench::core::PhaseScope scope(Phase::Symbolic, "pin");
            pin.call();
        }
        auto ops = prof.opsByTime();
        auto it = std::find_if(ops.begin(), ops.end(), [&](auto &op) {
            return op.name == pin.name;
        });
        ASSERT_NE(it, ops.end()) << pin.name;
        EXPECT_EQ(it->category, pin.category) << pin.name;
        EXPECT_EQ(it->stats.invocations, 1u) << pin.name;
        EXPECT_DOUBLE_EQ(it->stats.flops, pin.flops) << pin.name;
        EXPECT_DOUBLE_EQ(it->stats.bytesRead, pin.bytesRead)
            << pin.name;
        EXPECT_DOUBLE_EQ(it->stats.bytesWritten, pin.bytesWritten)
            << pin.name;
    }
    prof.reset();
}

TEST(ElementwiseDeath, ShapeMismatch)
{
    Tensor a({2});
    Tensor b({3});
    EXPECT_DEATH(add(a, b), "shape mismatch");
}

} // namespace
