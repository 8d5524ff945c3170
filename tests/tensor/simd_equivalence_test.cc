/**
 * @file
 * Scalar-vs-AVX2 equivalence for the tensor kernels.
 *
 * Property-based: shapes are randomized each trial (odd sizes,
 * non-multiples of the 8-lane vector width, size 0/1 edge cases) and
 * every op is evaluated three ways — scalar backend, SIMD backend at
 * width 1, and SIMD backend at widths 4 and 13 (oversubscribed on
 * small hosts). Pure element-wise maps must match bit-for-bit;
 * reductions and FMA-fused kernels must agree within 1e-5 relative
 * tolerance; index results (argmax) must be exactly equal.
 *
 * When the host lacks AVX2 the suite degenerates to scalar-vs-scalar
 * and is skipped.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "tensor/ops.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "util/threadpool.hh"

namespace
{

using namespace nsbench;
using nsbench::tensor::Tensor;
using nsbench::util::Rng;
using nsbench::util::ThreadPool;
namespace simd = nsbench::util::simd;

// Widths 4 and 13 oversubscribe small CI hosts on purpose: the chunk
// grid (and therefore the result) must not care.
const std::vector<int> kSimdWidths = {1, 4, 13};

// Sizes straddling the 8-lane float width and the 4x16 matmul tile:
// 0/1 degenerate, odd, one-below/at/one-above multiples.
const std::vector<int64_t> kEdgeSizes = {0,  1,  2,  3,  7,  8,  9,
                                         15, 16, 17, 31, 33, 63, 64,
                                         65, 100, 127};

double
relDiff(double got, double want)
{
    double denom = std::max(std::abs(want), 1.0);
    return std::abs(got - want) / denom;
}

class SimdEquivalence : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!simd::avx2Supported())
            GTEST_SKIP() << "host lacks AVX2; scalar-only build path "
                            "already covered by the seed suite";
    }

    ~SimdEquivalence() override
    {
        simd::resetBackend();
        ThreadPool::setGlobalThreads(0);
    }

    /** Runs fn under every (backend, width) combination and hands the
     * scalar width-1 reference plus each SIMD result to check. */
    void
    compareBackends(const std::function<Tensor()> &fn,
                    const std::function<void(const Tensor &,
                                             const Tensor &,
                                             int)> &check)
    {
        simd::setBackend(simd::Backend::Scalar);
        ThreadPool::setGlobalThreads(1);
        Tensor expect = fn();

        simd::setBackend(simd::Backend::Avx2);
        for (int width : kSimdWidths) {
            ThreadPool::setGlobalThreads(width);
            Tensor got = fn();
            ASSERT_EQ(got.shape(), expect.shape())
                << "width " << width;
            check(got, expect, width);
        }
        simd::resetBackend();
        ThreadPool::setGlobalThreads(0);
    }

    /** Compares bit patterns, so NaN and the sign of zero count. */
    void
    expectBitEqual(const std::function<Tensor()> &fn)
    {
        compareBackends(fn, [](const Tensor &got, const Tensor &expect,
                               int width) {
            for (int64_t i = 0; i < got.numel(); i++)
                ASSERT_EQ(std::bit_cast<uint32_t>(got.flat(i)),
                          std::bit_cast<uint32_t>(expect.flat(i)))
                    << "width " << width << " elem " << i << ": got "
                    << got.flat(i) << " want " << expect.flat(i);
        });
    }

    void
    expectClose(const std::function<Tensor()> &fn, double rtol = 1e-5)
    {
        compareBackends(fn, [rtol](const Tensor &got,
                                   const Tensor &expect, int width) {
            for (int64_t i = 0; i < got.numel(); i++)
                ASSERT_LE(relDiff(got.flat(i), expect.flat(i)), rtol)
                    << "width " << width << " elem " << i << ": got "
                    << got.flat(i) << " want " << expect.flat(i);
        });
    }

    void
    expectScalarClose(const std::function<double()> &fn,
                      double rtol = 1e-5)
    {
        simd::setBackend(simd::Backend::Scalar);
        ThreadPool::setGlobalThreads(1);
        double expect = fn();

        simd::setBackend(simd::Backend::Avx2);
        for (int width : kSimdWidths) {
            ThreadPool::setGlobalThreads(width);
            double got = fn();
            ASSERT_LE(relDiff(got, expect), rtol)
                << "width " << width << ": got " << got << " want "
                << expect;
        }
        simd::resetBackend();
        ThreadPool::setGlobalThreads(0);
    }

    void
    expectIndexEqual(const std::function<int64_t()> &fn)
    {
        simd::setBackend(simd::Backend::Scalar);
        ThreadPool::setGlobalThreads(1);
        int64_t expect = fn();

        simd::setBackend(simd::Backend::Avx2);
        for (int width : kSimdWidths) {
            ThreadPool::setGlobalThreads(width);
            ASSERT_EQ(fn(), expect) << "width " << width;
        }
        simd::resetBackend();
        ThreadPool::setGlobalThreads(0);
    }

    /** A random length mixing edge sizes with arbitrary draws. */
    int64_t
    randomLength()
    {
        if (rng.bernoulli(0.5)) {
            return kEdgeSizes[static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(kEdgeSizes.size()) - 1))];
        }
        return rng.uniformInt(1, 300);
    }

    Rng rng{20240806};
};

TEST_F(SimdEquivalence, ElementwiseBinaryBitExact)
{
    for (int trial = 0; trial < 30; trial++) {
        int64_t n = randomLength();
        Tensor a = Tensor::randn({n}, rng);
        Tensor b = Tensor::randn({n}, rng, 0.5f, 2.0f);
        expectBitEqual([&] { return tensor::add(a, b); });
        expectBitEqual([&] { return tensor::sub(a, b); });
        expectBitEqual([&] { return tensor::mul(a, b); });
    }
}

TEST_F(SimdEquivalence, DivisionBitExact)
{
    for (int trial = 0; trial < 10; trial++) {
        int64_t n = randomLength();
        Tensor a = Tensor::randn({n}, rng);
        // Denominators bounded away from zero.
        Tensor b = Tensor::rand({n}, rng, 0.5f, 3.0f);
        expectBitEqual([&] { return tensor::div(a, b); });
    }
}

TEST_F(SimdEquivalence, ElementwiseUnaryBitExact)
{
    for (int trial = 0; trial < 30; trial++) {
        int64_t n = randomLength();
        Tensor a = Tensor::randn({n}, rng);
        float s = rng.uniform(-2.0f, 2.0f);
        expectBitEqual([&] { return tensor::relu(a); });
        expectBitEqual([&] { return tensor::neg(a); });
        expectBitEqual([&] { return tensor::addScalar(a, s); });
        expectBitEqual([&] { return tensor::mulScalar(a, s); });
        expectBitEqual([&] { return tensor::clamp(a, -0.5f, 0.5f); });
    }
}

// NVSA, LNN and LTN call the addScalar and clampRange kernels inside
// fused maps, so each kernel is checked directly as well as through
// its tensor op. Each length puts the special values in the 8-lane
// loop, in the tail, or in both.
const std::vector<int64_t> kKernelLengths = {1, 4, 13, 31};

/** Every special value at every position of an @p n-float input. */
std::vector<std::vector<float>>
specialInputs(int64_t n)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const std::vector<float> values = {nan,  0.0f,  -0.0f, 1.0f,
                                       -1.0f, 0.5f, 2.0f,  -2.0f,
                                       inf,  -inf,  1e-45f, -1e-45f};
    std::vector<std::vector<float>> inputs;
    for (size_t shift = 0; shift < values.size(); shift++) {
        std::vector<float> in(static_cast<size_t>(n));
        for (size_t i = 0; i < in.size(); i++)
            in[i] = values[(i + shift) % values.size()];
        inputs.push_back(std::move(in));
    }
    return inputs;
}

/** Runs @p kernel on @p in under both backends; memcmps the outputs. */
void
expectKernelBitEqual(
    const std::vector<float> &in,
    const std::function<void(const float *, float *, int64_t)> &kernel)
{
    auto n = static_cast<int64_t>(in.size());
    std::vector<float> want(in.size()), got(in.size());
    simd::setBackend(simd::Backend::Scalar);
    kernel(in.data(), want.data(), n);
    simd::setBackend(simd::Backend::Avx2);
    kernel(in.data(), got.data(), n);
    simd::resetBackend();
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          in.size() * sizeof(float)),
              0)
        << "length " << n;
}

TEST_F(SimdEquivalence, AddScalarKernelBitExact)
{
    for (int64_t n : kKernelLengths) {
        std::vector<std::vector<float>> inputs = specialInputs(n);
        Tensor random = Tensor::randn({n}, rng);
        auto values = random.data();
        inputs.emplace_back(values.begin(), values.end());
        for (const std::vector<float> &in : inputs) {
            for (float s : {1.0f, -0.0f, -2.5f, 1e-45f}) {
                expectKernelBitEqual(
                    in, [s](const float *a, float *out, int64_t len) {
                        simd::addScalar(a, s, out, len);
                    });
            }
        }
    }
}

TEST_F(SimdEquivalence, ClampRangeKernelBitExact)
{
    // std::clamp's rule for NaN, +-0 ties at either bound and +-inf.
    for (int64_t n : kKernelLengths) {
        for (const std::vector<float> &in : specialInputs(n)) {
            for (float lo : {0.0f, -0.0f, -1.0f}) {
                for (float hi : {1.0f, 0.0f, -0.0f}) {
                    expectKernelBitEqual(
                        in, [lo, hi](const float *a, float *out,
                                     int64_t len) {
                            simd::clampRange(a, lo, hi, out, len);
                        });
                }
            }
        }
    }
}

TEST_F(SimdEquivalence, ReluNegativeZero)
{
    // relu(x) is `x > 0 ? x : 0`, which maps -0.0f to +0.0f; the AVX2
    // compare-and-mask path must preserve that, not pass -0.0 through.
    Tensor a({9});
    for (int64_t i = 0; i < 9; i++)
        a(i) = (i % 2 == 0) ? -0.0f : -1.0f;
    expectBitEqual([&] { return tensor::relu(a); });
}

TEST_F(SimdEquivalence, ReductionsClose)
{
    for (int trial = 0; trial < 30; trial++) {
        int64_t n = randomLength();
        Tensor a = Tensor::randn({n}, rng);
        Tensor b = Tensor::randn({n}, rng);
        expectScalarClose([&] {
            return static_cast<double>(tensor::sumAll(a));
        });
        if (n >= 1)
            expectIndexEqual([&] { return tensor::argmaxAll(a); });
        expectScalarClose(
            [&] { return static_cast<double>(tensor::dot(a, b)); });
    }
}

TEST_F(SimdEquivalence, ArgmaxDuplicateMaxima)
{
    // Repeated maxima at lane boundaries: both backends must report
    // the FIRST strict maximum.
    for (int64_t n : {8, 9, 16, 17, 64}) {
        Tensor a = Tensor::zeros({n});
        a(3 % n) = 5.0f;
        a(n - 1) = 5.0f;
        expectIndexEqual([&] { return tensor::argmaxAll(a); });
    }
}

TEST_F(SimdEquivalence, MatmulClose)
{
    for (int trial = 0; trial < 20; trial++) {
        int64_t m = rng.uniformInt(1, 33);
        int64_t k = randomLength();
        int64_t n = rng.uniformInt(1, 40);
        Tensor a = Tensor::randn({m, k}, rng);
        Tensor b = Tensor::randn({k, n}, rng);
        expectClose([&] { return tensor::matmul(a, b); });
    }
}

TEST_F(SimdEquivalence, MatmulDegenerateShapes)
{
    // Zero-extent inner/outer dimensions must produce identical
    // (all-zero or empty) outputs on both backends.
    Tensor a30 = Tensor::zeros({3, 0});
    Tensor b05 = Tensor::zeros({0, 5});
    expectBitEqual([&] { return tensor::matmul(a30, b05); });

    Tensor a04 = Tensor::zeros({0, 4});
    Tensor b42 = Tensor::randn({4, 2}, rng);
    expectBitEqual([&] { return tensor::matmul(a04, b42); });

    Tensor a11 = Tensor::full({1, 1}, 3.0f);
    Tensor b11 = Tensor::full({1, 1}, -2.0f);
    expectBitEqual([&] { return tensor::matmul(a11, b11); });
}

TEST_F(SimdEquivalence, LinearClose)
{
    for (int trial = 0; trial < 20; trial++) {
        int64_t n = rng.uniformInt(1, 17);
        int64_t k = randomLength();
        int64_t o = rng.uniformInt(1, 33);
        Tensor x = Tensor::randn({n, k}, rng);
        Tensor w = Tensor::randn({o, k}, rng);
        Tensor bias = Tensor::randn({o}, rng);
        expectClose([&] { return tensor::linear(x, w, bias); });
        expectClose([&] { return tensor::linear(x, w, Tensor()); });
    }
}

TEST_F(SimdEquivalence, EdgeSizesSweep)
{
    // Every edge size through the full kernel set, deterministically.
    for (int64_t n : kEdgeSizes) {
        Tensor a = Tensor::randn({n}, rng);
        Tensor b = Tensor::rand({n}, rng, 0.5f, 2.0f);
        expectBitEqual([&] { return tensor::add(a, b); });
        expectBitEqual([&] { return tensor::mul(a, b); });
        expectBitEqual([&] { return tensor::relu(a); });
        expectScalarClose([&] {
            return static_cast<double>(tensor::sumAll(a));
        });
        expectScalarClose(
            [&] { return static_cast<double>(tensor::dot(a, b)); });
        if (n >= 1)
            expectIndexEqual([&] { return tensor::argmaxAll(a); });
    }
}

} // namespace
