/**
 * @file
 * The order-preserving kernels against the direct loops they replaced.
 *
 * circular_conv / circular_corr, conv2d, nlm_expand and the
 * template_match IoU run many outputs at once but keep each output's
 * exact accumulation order. The FFT runs two butterflies per vector
 * with each butterfly's std::complex operations, from twiddles its
 * plan built by the loop's own recurrence; fft_circular_conv,
 * vsa_conv_power and unitaryVector are checked as compositions over
 * the old loop. The loops they replaced stay here as
 * oracles, and every output is compared byte for byte (memcmp) under
 * the scalar backend and, on AVX2 hosts, the AVX2 backend, each at pool
 * widths 1, 4 and 13.
 *
 * The transcendental twins (tanh, exp, sigmoid) have no loop to
 * replace: their oracle is the libm expression they reproduce, on
 * hosts whose libm is that reference (transcendental_reference.hh),
 * and the scalar twin everywhere.
 *
 * The file is linked a second time with golden/poison_new.cc (test
 * prefix Poisoned.), so every fresh tensor buffer starts as NaN bytes:
 * an output element a rewrite forgets to write then fails the
 * comparison instead of reading a zero by luck.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "tensor/ops.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "util/threadpool.hh"
#include "vsa/fft.hh"
#include "vsa/ops.hh"
#include "workloads/nlm.hh"
#include "workloads/perception.hh"

#include "transcendental_reference.hh"

namespace
{

using namespace nsbench;
using nsbench::tensor::Tensor;
using nsbench::util::Rng;
using nsbench::util::ThreadPool;
namespace simd = nsbench::util::simd;

const std::vector<int> kWidths = {1, 4, 13};

std::vector<simd::Backend>
backends()
{
    std::vector<simd::Backend> all = {simd::Backend::Scalar};
    if (simd::avx2Supported())
        all.push_back(simd::Backend::Avx2);
    return all;
}

/** Index of the first element whose bytes differ, or -1. */
int64_t
firstMismatch(const Tensor &got, const Tensor &want)
{
    auto g = got.data();
    auto w = want.data();
    for (size_t i = 0; i < w.size(); i++) {
        if (std::memcmp(&g[i], &w[i], sizeof(float)) != 0)
            return static_cast<int64_t>(i);
    }
    return -1;
}

/** Runs fn under every backend and pool width; each result must carry
 * exactly the oracle's bytes. */
void
expectSameBytes(const Tensor &want, const std::function<Tensor()> &fn,
                const std::string &what)
{
    for (simd::Backend backend : backends()) {
        simd::setBackend(backend);
        for (int width : kWidths) {
            ThreadPool::setGlobalThreads(width);
            Tensor got = fn();
            ASSERT_EQ(got.shape(), want.shape()) << what;
            ASSERT_EQ(std::memcmp(got.data().data(), want.data().data(),
                                  want.data().size_bytes()),
                      0)
                << what << ", " << simd::backendName(backend)
                << " backend, width " << width
                << ": first mismatch at element "
                << firstMismatch(got, want);
        }
    }
}

class ExactSimdEquivalence : public testing::Test
{
  protected:
    ~ExactSimdEquivalence() override
    {
        simd::resetBackend();
        ThreadPool::setGlobalThreads(0);
    }
};

// ---------------------------------------------------------------------
// Oracles: the loops as they were before the rewrite.
// ---------------------------------------------------------------------

Tensor
circularConvOracle(const Tensor &a, const Tensor &b)
{
    int64_t d = a.size(0);
    Tensor out({d});
    auto pa = a.data();
    auto pb = b.data();
    auto po = out.data();
    for (int64_t i = 0; i < d; i++) {
        double acc = 0.0;
        for (int64_t j = 0; j < d; j++) {
            acc += static_cast<double>(pa[static_cast<size_t>(j)]) *
                   pb[static_cast<size_t>(((i - j) % d + d) % d)];
        }
        po[static_cast<size_t>(i)] = static_cast<float>(acc);
    }
    return out;
}

Tensor
circularCorrOracle(const Tensor &a, const Tensor &b)
{
    int64_t d = a.size(0);
    Tensor out({d});
    auto pa = a.data();
    auto pb = b.data();
    auto po = out.data();
    for (int64_t i = 0; i < d; i++) {
        double acc = 0.0;
        for (int64_t j = 0; j < d; j++) {
            acc += static_cast<double>(pa[static_cast<size_t>(j)]) *
                   pb[static_cast<size_t>((j + i) % d)];
        }
        po[static_cast<size_t>(i)] = static_cast<float>(acc);
    }
    return out;
}

Tensor
conv2dOracle(const Tensor &input, const Tensor &weight, const Tensor &bias,
             int64_t stride, int64_t padding)
{
    int64_t n = input.size(0), c = input.size(1);
    int64_t h = input.size(2), w = input.size(3);
    int64_t o = weight.size(0);
    int64_t kh = weight.size(2), kw = weight.size(3);
    int64_t oh = (h + 2 * padding - kh) / stride + 1;
    int64_t ow = (w + 2 * padding - kw) / stride + 1;
    Tensor out({n, o, oh, ow});
    auto src = input.data();
    auto wt = weight.data();
    auto dst = out.data();
    for (int64_t b = 0; b < n; b++) {
        for (int64_t oc = 0; oc < o; oc++) {
            float bias_v = bias.empty() ? 0.0f : bias.flat(oc);
            for (int64_t oy = 0; oy < oh; oy++) {
                for (int64_t ox = 0; ox < ow; ox++) {
                    float acc = bias_v;
                    int64_t iy0 = oy * stride - padding;
                    int64_t ix0 = ox * stride - padding;
                    for (int64_t ic = 0; ic < c; ic++) {
                        for (int64_t ky = 0; ky < kh; ky++) {
                            int64_t iy = iy0 + ky;
                            if (iy < 0 || iy >= h)
                                continue;
                            for (int64_t kx = 0; kx < kw; kx++) {
                                int64_t ix = ix0 + kx;
                                if (ix < 0 || ix >= w)
                                    continue;
                                acc += src[static_cast<size_t>(
                                           ((b * c + ic) * h + iy) * w +
                                           ix)] *
                                       wt[static_cast<size_t>(
                                           ((oc * c + ic) * kh + ky) *
                                               kw +
                                           kx)];
                            }
                        }
                    }
                    dst[static_cast<size_t>(
                        ((b * o + oc) * oh + oy) * ow + ox)] = acc;
                }
            }
        }
    }
    return out;
}

Tensor
expandUnaryOracle(const Tensor &unary)
{
    int64_t n = unary.size(0);
    int64_t c = unary.size(1);
    Tensor out({n, n, 2 * c});
    for (int64_t i = 0; i < n; i++) {
        for (int64_t j = 0; j < n; j++) {
            for (int64_t ch = 0; ch < c; ch++) {
                out(i, j, ch) = unary(i, ch);
                out(i, j, c + ch) = unary(j, ch);
            }
        }
    }
    return out;
}

Tensor
expandBinaryPermsOracle(const Tensor &binary)
{
    int64_t n = binary.size(0);
    int64_t c = binary.size(2);
    Tensor out({n, n, n, 6 * c});
    for (int64_t i = 0; i < n; i++) {
        for (int64_t j = 0; j < n; j++) {
            for (int64_t k = 0; k < n; k++) {
                const std::array<std::pair<int64_t, int64_t>, 6>
                    pairs = {{{i, j},
                              {i, k},
                              {j, i},
                              {j, k},
                              {k, i},
                              {k, j}}};
                for (size_t p = 0; p < pairs.size(); p++) {
                    for (int64_t ch = 0; ch < c; ch++) {
                        out(i, j, k,
                            static_cast<int64_t>(p) * c + ch) =
                            binary(pairs[p].first, pairs[p].second,
                                   ch);
                    }
                }
            }
        }
    }
    return out;
}

/** template_match's per-pixel IoU of one cell against one template. */
float
pixelIoUOracle(const Tensor &image, int64_t cell_row, int64_t cell_col,
               const Tensor &tpl, int64_t cell_size)
{
    int64_t inter = 0, uni = 0;
    for (int64_t y = 0; y < cell_size; y++) {
        for (int64_t x = 0; x < cell_size; x++) {
            bool a = image(0, cell_row + y, cell_col + x) >
                     workloads::litThreshold;
            bool b = tpl(y, x) > workloads::litThreshold;
            inter += (a && b) ? 1 : 0;
            uni += (a || b) ? 1 : 0;
        }
    }
    return uni > 0 ? static_cast<float>(inter) / static_cast<float>(uni)
                   : 0.0f;
}

using Spectrum = std::vector<std::complex<double>>;

/** The radix-2 FFT as it ran before its plan: bit reversal, then each
 * block's twiddles by recurrence, w *= wlen after every butterfly. */
void
fftOracle(Spectrum &values, bool inverse)
{
    size_t n = values.size();
    if (n == 1)
        return;
    for (size_t i = 1, j = 0; i < n; i++) {
        size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            std::swap(values[i], values[j]);
    }
    for (size_t len = 2; len <= n; len <<= 1) {
        double angle = 2.0 * std::numbers::pi /
                       static_cast<double>(len) * (inverse ? 1.0 : -1.0);
        std::complex<double> wlen(std::cos(angle), std::sin(angle));
        for (size_t i = 0; i < n; i += len) {
            std::complex<double> w(1.0, 0.0);
            for (size_t k = 0; k < len / 2; k++) {
                std::complex<double> u = values[i + k];
                std::complex<double> v = values[i + k + len / 2] * w;
                values[i + k] = u + v;
                values[i + k + len / 2] = u - v;
                w *= wlen;
            }
        }
    }
    if (inverse) {
        for (auto &v : values)
            v /= static_cast<double>(n);
    }
}

/** The real parts of @p spectrum, rounded to float. */
Tensor
realParts(const Spectrum &spectrum)
{
    Tensor out({static_cast<int64_t>(spectrum.size())});
    for (size_t i = 0; i < spectrum.size(); i++)
        out.flat(static_cast<int64_t>(i)) =
            static_cast<float>(spectrum[i].real());
    return out;
}

Spectrum
widened(const Tensor &t)
{
    auto p = t.data();
    return Spectrum(p.begin(), p.end());
}

/** vsa::fftCircularConvolve over the oracle FFT. */
Tensor
fftCircularConvolveOracle(const Tensor &a, const Tensor &b)
{
    Spectrum fa = widened(a);
    Spectrum fb = widened(b);
    fftOracle(fa, false);
    fftOracle(fb, false);
    for (size_t i = 0; i < fa.size(); i++)
        fa[i] *= fb[i];
    fftOracle(fa, true);
    return realParts(fa);
}

/** vsa::unitaryVector over the oracle FFT. */
Tensor
unitaryVectorOracle(int64_t dim, Rng &rng)
{
    auto d = static_cast<size_t>(dim);
    Spectrum spectrum(d);
    spectrum[0] = rng.bernoulli(0.5) ? 1.0 : -1.0;
    spectrum[d / 2] = rng.bernoulli(0.5) ? 1.0 : -1.0;
    for (size_t i = 1; i < d / 2; i++) {
        double theta = rng.uniformDouble(0.0, 2.0 * 3.14159265358979);
        spectrum[i] = {std::cos(theta), std::sin(theta)};
        spectrum[d - i] = std::conj(spectrum[i]);
    }
    fftOracle(spectrum, true);
    return realParts(spectrum);
}

/** vsa::convPower over the oracle FFT. */
Tensor
convPowerOracle(const Tensor &base, int power)
{
    Spectrum spectrum = widened(base);
    fftOracle(spectrum, false);
    for (auto &c : spectrum) {
        double mag = std::abs(c);
        double phase = std::arg(c);
        double new_mag = std::pow(mag, power);
        double new_phase = phase * power;
        c = {new_mag * std::cos(new_phase),
             new_mag * std::sin(new_phase)};
    }
    fftOracle(spectrum, true);
    return realParts(spectrum);
}

// ---------------------------------------------------------------------
// circular_conv / circular_corr
// ---------------------------------------------------------------------

// Wrap points, odd d and every remainder of the 32- and 4-output
// blocks, up to the largest hypervector NVSA uses.
const std::vector<int64_t> kCircularDims = {
    1, 2, 3, 7, 8, 9, 31, 32, 33, 63, 64, 65, 1023, 1024, 2048};

TEST_F(ExactSimdEquivalence, CircularConvolutionMatchesSchoolbook)
{
    for (int64_t d : kCircularDims) {
        for (bool gaussian : {false, true}) {
            Rng rng(static_cast<uint64_t>(1000 + d));
            Tensor a = gaussian ? Tensor::randn({d}, rng)
                                : Tensor::bipolar({d}, rng);
            Tensor b = gaussian ? Tensor::randn({d}, rng)
                                : Tensor::bipolar({d}, rng);
            std::string what = "d " + std::to_string(d) +
                               (gaussian ? " gaussian" : " bipolar");
            expectSameBytes(circularConvOracle(a, b),
                            [&] { return vsa::circularConvolve(a, b); },
                            "conv " + what);
            expectSameBytes(circularCorrOracle(a, b),
                            [&] { return vsa::circularCorrelate(a, b); },
                            "corr " + what);
            if (HasFailure())
                return;
        }
    }
}

// ---------------------------------------------------------------------
// FFT: the plan and its butterfly twins
// ---------------------------------------------------------------------

/**
 * One class of FFT input: about half of the real and imaginary parts
 * of a random finite signal are replaced by the class's values, or,
 * for a class marked @c negativeZeroReal, every value is -0 + bi with
 * b < 0. A class carries at most one NaN bit pattern: where two
 * different NaNs meet in one add or multiply, IEEE 754 leaves open
 * which survives and the compiler may commute the operands, so neither
 * the loop nor the twins fix those bits.
 */
struct FftInputClass
{
    std::string name;
    std::vector<double> values;
    bool negativeZeroReal = false;
};

const double kInf = std::numeric_limits<double>::infinity();

const std::vector<FftInputClass> kFftClasses = {
    {"finite", {}},
    {"signed zeros", {0.0, -0.0}},
    // The first stage's product by w_0 = (1, 0) turns -0 + bi, b < 0,
    // into +0 + bi; a stage that skipped it would keep the -0.
    {"-0 + bi, b < 0", {}, true},
    {"subnormals", {0x1p-1074, -0x1p-1074, 0x1.8p-1030, -0x1.fffp-1023}},
    {"infinities", {kInf, -kInf}},
    {"NaN", {std::numeric_limits<double>::quiet_NaN()}},
};

Spectrum
fftInput(size_t n, const FftInputClass &cls, Rng &rng)
{
    Spectrum x(n);
    for (size_t i = 0; i < n; i++) {
        double part[2];
        for (double &p : part) {
            p = rng.uniformDouble(-10.0, 10.0);
            if (!cls.values.empty() && rng.bernoulli(0.5))
                p = cls.values[static_cast<size_t>(rng.uniformInt(
                    0, static_cast<int64_t>(cls.values.size()) - 1))];
        }
        x[i] = cls.negativeZeroReal
                   ? std::complex<double>(-0.0, -std::abs(part[1]) - 1.0)
                   : std::complex<double>(part[0], part[1]);
    }
    return x;
}

/** Index of the first complex value whose bytes differ, or -1. */
int64_t
firstMismatch(const Spectrum &got, const Spectrum &want)
{
    for (size_t i = 0; i < want.size(); i++) {
        if (std::memcmp(&got[i], &want[i], sizeof(want[i])) != 0)
            return static_cast<int64_t>(i);
    }
    return -1;
}

TEST_F(ExactSimdEquivalence, FftMatchesPerBlockLoop)
{
    Rng rng(2718);
    for (const FftInputClass &cls : kFftClasses) {
        for (size_t n = 1; n <= 4096; n *= 2) {
            for (bool inverse : {false, true}) {
                Spectrum input = fftInput(n, cls, rng);
                Spectrum want = input;
                fftOracle(want, inverse);
                for (simd::Backend backend : backends()) {
                    simd::setBackend(backend);
                    Spectrum got = input;
                    vsa::fft(got, inverse);
                    ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                          n * sizeof(want[0])),
                              0)
                        << cls.name << ", n " << n
                        << (inverse ? " inverse, " : " forward, ")
                        << simd::backendName(backend)
                        << " backend: first mismatch at "
                        << firstMismatch(got, want);
                }
            }
        }
    }
}

TEST_F(ExactSimdEquivalence, FftOpsMatchCompositionsOverTheLoop)
{
    for (int64_t d = 1; d <= 4096; d *= 2) {
        Rng rng(static_cast<uint64_t>(3000 + d));
        Tensor a = Tensor::randn({d}, rng);
        Tensor b = Tensor::randn({d}, rng);
        std::string at = "d " + std::to_string(d);
        expectSameBytes(fftCircularConvolveOracle(a, b),
                        [&] { return vsa::fftCircularConvolve(a, b); },
                        "fft_circular_conv " + at);

        auto seed = static_cast<uint64_t>(4000 + d);
        Rng oracle_rng(seed);
        Tensor base = unitaryVectorOracle(d, oracle_rng);
        expectSameBytes(base,
                        [&] {
                            Rng op_rng(seed);
                            return vsa::unitaryVector(d, op_rng);
                        },
                        "unitaryVector " + at);
        for (const Tensor *v : {&base, &a}) {
            for (int power : {-3, 0, 1, 2, 7})
                expectSameBytes(
                    convPowerOracle(*v, power),
                    [&] { return vsa::convPower(*v, power); },
                    "convPower " + std::to_string(power) + " " + at);
        }
        if (HasFailure())
            return;
    }
}

// ---------------------------------------------------------------------
// conv2d
// ---------------------------------------------------------------------

struct ConvCase
{
    int64_t n, c, h, w, o, k, stride, padding;
    bool bias;
};

std::string
describe(const ConvCase &cc)
{
    return "n" + std::to_string(cc.n) + " c" + std::to_string(cc.c) +
           " " + std::to_string(cc.h) + "x" + std::to_string(cc.w) +
           " o" + std::to_string(cc.o) + " k" + std::to_string(cc.k) +
           " s" + std::to_string(cc.stride) + " p" +
           std::to_string(cc.padding) + (cc.bias ? " bias" : "");
}

void
checkConv(const ConvCase &cc, Rng &rng)
{
    Tensor input = Tensor::randn({cc.n, cc.c, cc.h, cc.w}, rng);
    Tensor weight = Tensor::randn({cc.o, cc.c, cc.k, cc.k}, rng);
    Tensor bias = cc.bias ? Tensor::randn({cc.o}, rng) : Tensor();
    expectSameBytes(
        conv2dOracle(input, weight, bias, cc.stride, cc.padding),
        [&] {
            return tensor::conv2d(input, weight, bias, cc.stride,
                                  cc.padding);
        },
        describe(cc));
}

TEST_F(ExactSimdEquivalence, Conv2dMatchesDirectLoop)
{
    Rng rng(4242);
    int index = 0;
    for (int64_t k : {1, 3, 5, 8, 10}) {
        for (int64_t padding : {0, 1, 2}) {
            // Interior (all-taps-inside) widths: below one vector,
            // exactly one, and 8m + r for each block size the kernel
            // uses, so every overlap and remainder path runs.
            for (int64_t interior : {3, 8, 13, 19, 27, 35, 40}) {
                ConvCase cc{};
                cc.n = index % 2 == 0 ? 2 : 1;
                cc.c = std::vector<int64_t>{1, 3, 8}[index % 3];
                cc.h = k + 2;
                cc.w = interior + k - 1;
                cc.o = 2;
                cc.k = k;
                cc.stride = 1;
                cc.padding = padding;
                cc.bias = index % 4 != 3;
                index++;
                checkConv(cc, rng);
                if (HasFailure())
                    return;
            }
        }
    }
}

TEST_F(ExactSimdEquivalence, Conv2dStrideAndWorkloadShapes)
{
    Rng rng(777);
    std::vector<ConvCase> cases = {
        // Stride 2: scalar on both backends, same skip rule.
        {2, 3, 9, 9, 2, 3, 2, 1, true},
        {1, 1, 17, 20, 3, 1, 2, 0, false},
        {2, 8, 12, 19, 2, 5, 2, 2, true},
        {1, 3, 20, 40, 2, 3, 2, 0, true},
        // Kernel wider than the input, fitting only with padding.
        {1, 2, 3, 3, 2, 5, 1, 1, true},
        {1, 1, 6, 12, 1, 10, 1, 2, false},
        // The workload shapes: perception trunk (48x48, 1->8 and
        // 8->16), ZeroC's shared net (32x32) and an energy kernel.
        {2, 1, 48, 48, 8, 3, 1, 1, true},
        {1, 8, 48, 48, 16, 3, 1, 1, true},
        {1, 1, 32, 32, 8, 3, 1, 1, true},
        {1, 8, 32, 32, 8, 3, 1, 1, true},
        {1, 1, 32, 32, 1, 7, 1, 0, false},
    };
    for (const ConvCase &cc : cases) {
        checkConv(cc, rng);
        if (HasFailure())
            return;
    }
}

/**
 * Special values a conv case mixes into its operands. The classes
 * never meet: where two NaNs of different bit patterns meet in one
 * add, which survives is not pinned (DESIGN.md §7b), and every NaN an
 * invalid operation makes (inf - inf, 0 * inf) is the one default NaN.
 */
enum class Specials
{
    /// ±0 and subnormals in inputs, weights and bias, ±inf in inputs
    /// and weights; no NaN goes in.
    ZerosInfs,
    /// Inputs NaN of one payload; no inf anywhere.
    NanInputs,
    /// Biases signalling NaNs (no other NaN, no inf): an output that
    /// no tap reaches keeps its bias's bits, a reached one quiets it.
    SignallingBiases,
};

/** Replaces about @p rate of @p t's elements with @p kind's specials
 * (infs at a tenth of that rate, so that most sums stay finite). */
void
sprinkle(Tensor &t, Specials kind, double rate, Rng &rng, bool infs)
{
    const float inf = std::numeric_limits<float>::infinity();
    const float tiny = std::numeric_limits<float>::denorm_min();
    const std::vector<float> small = {0.0f,  -0.0f,  tiny,
                                      -tiny, 3e-39f, -1.5e-40f};
    const float nan = std::bit_cast<float>(0x7fc01234u);
    for (float &v : t.data()) {
        if (!rng.bernoulli(rate))
            continue;
        if (kind == Specials::NanInputs)
            v = nan;
        else if (infs && rng.bernoulli(0.1))
            v = rng.bernoulli(0.5) ? inf : -inf;
        else
            v = small[static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(small.size()) - 1))];
    }
}

/** checkConv with @p kind's specials in the operands; @p rate 1 makes
 * the input all specials. */
void
checkConvSpecials(const ConvCase &cc, Specials kind, double rate, Rng &rng)
{
    Tensor input = Tensor::randn({cc.n, cc.c, cc.h, cc.w}, rng);
    Tensor weight = Tensor::randn({cc.o, cc.c, cc.k, cc.k}, rng);
    Tensor bias = cc.bias ? Tensor::randn({cc.o}, rng) : Tensor();
    if (kind == Specials::SignallingBiases) {
        for (int64_t i = 0; i < bias.numel(); i++)
            bias.flat(i) = std::bit_cast<float>(
                (i % 2 ? 0xff800000u : 0x7f800000u) +
                static_cast<uint32_t>(1 + 4099 * i));
    } else {
        sprinkle(input, kind,
                 kind == Specials::NanInputs ? rate / 8 : rate, rng, true);
    }
    if (kind == Specials::ZerosInfs) {
        sprinkle(weight, kind, 0.25, rng, true);
        if (cc.bias) {
            sprinkle(bias, kind, 0.5, rng, false);
            bias.flat(0) = -0.0f;
        }
    }
    expectSameBytes(
        conv2dOracle(input, weight, bias, cc.stride, cc.padding),
        [&] {
            return tensor::conv2d(input, weight, bias, cc.stride,
                                  cc.padding);
        },
        describe(cc) +
            (kind == Specials::ZerosInfs   ? " zeros/infs"
             : kind == Specials::NanInputs ? " NaN inputs"
                                           : " sNaN biases") +
            " rate " + std::to_string(rate));
}

/** Shapes whose edges differ: widths around a vector, padding beyond
 * the kernel, plane counts that leave block remainders. */
const std::vector<ConvCase> kEdgeCases = {
    {2, 3, 9, 17, 5, 3, 1, 1, true},
    {1, 2, 7, 13, 7, 3, 1, 2, true},
    // Pad 2, kernel 1: 17 outputs over a 13-wide row put outside lanes
    // in the middle vector too; then a 17-wide row.
    {1, 1, 6, 13, 1, 1, 1, 2, true},
    {1, 2, 5, 17, 3, 1, 1, 2, false},
    // Padding beyond the kernel: some outputs are the bias alone.
    {1, 3, 8, 8, 2, 5, 1, 6, true},
    {1, 1, 4, 4, 16, 3, 1, 4, true},
    {1, 2, 3, 5, 3, 2, 1, 3, false},
    {1, 8, 24, 24, 16, 3, 1, 1, true},
    {1, 1, 32, 32, 1, 7, 1, 0, false},
    {2, 3, 9, 9, 2, 3, 2, 1, true},
};

TEST_F(ExactSimdEquivalence, Conv2dZerosSubnormalsAndInfs)
{
    Rng rng(1601);
    for (const ConvCase &cc : kEdgeCases) {
        for (double rate : {0.3, 1.0}) {
            checkConvSpecials(cc, Specials::ZerosInfs, rate, rng);
            if (HasFailure())
                return;
        }
    }
}

TEST_F(ExactSimdEquivalence, Conv2dNanInputs)
{
    Rng rng(1602);
    for (const ConvCase &cc : kEdgeCases) {
        for (double rate : {0.05, 0.5}) {
            checkConvSpecials(cc, Specials::NanInputs, rate, rng);
            if (HasFailure())
                return;
        }
    }
}

TEST_F(ExactSimdEquivalence, Conv2dSignallingNanBiases)
{
    Rng rng(1605);
    for (const ConvCase &cc : kEdgeCases) {
        if (!cc.bias)
            continue;
        checkConvSpecials(cc, Specials::SignallingBiases, 0.0, rng);
        if (HasFailure())
            return;
    }
}

TEST_F(ExactSimdEquivalence, Conv2dPlaneBlocksAndWidths)
{
    // Plane counts that fill blocks of four or leave 1-3 over, output
    // widths across one, two and six vectors, row counts that leave
    // partial row blocks, and padding from none to beyond the kernel.
    Rng rng(1603);
    std::vector<int64_t> widths;
    for (int64_t ow = 1; ow <= 17; ow++)
        widths.push_back(ow);
    for (int64_t ow : {24, 32, 48})
        widths.push_back(ow);
    int index = 0;
    for (int64_t o : {1, 2, 3, 5, 7, 16}) {
        for (int64_t ow : widths) {
            ConvCase cc{};
            cc.n = 1;
            cc.c = 1 + index % 3;
            cc.o = o;
            cc.k = ow % 3 == 0 ? 1 : 3;
            cc.padding = std::min<int64_t>(index % 5, (ow + cc.k - 2) / 2);
            cc.w = ow + cc.k - 1 - 2 * cc.padding;
            cc.h = 3 + index % 7;
            cc.stride = 1;
            cc.bias = index % 4 != 0;
            index++;
            ASSERT_GE(cc.w, 1) << describe(cc);
            checkConv(cc, rng);
            if (HasFailure())
                return;
        }
    }
}

TEST_F(ExactSimdEquivalence, Conv2dWorkloadLayers)
{
    Rng rng(1604);
    std::vector<ConvCase> cases = {
        // PrAE's perception trunk: 16 panels a batch.
        {16, 1, 48, 48, 8, 3, 1, 1, true},
        {16, 8, 24, 24, 16, 3, 1, 1, true},
        // VSAIT's extractor, then its generator.
        {1, 1, 32, 32, 8, 3, 1, 1, true},
        {1, 8, 32, 32, 8, 3, 1, 1, true},
        {1, 8, 32, 32, 16, 3, 1, 1, true},
        {1, 16, 32, 32, 16, 3, 1, 1, true},
        {1, 1, 32, 32, 8, 3, 1, 1, true},
        {1, 8, 32, 32, 8, 3, 1, 1, true},
        {1, 8, 32, 32, 8, 3, 1, 1, true},
        {1, 8, 32, 32, 1, 3, 1, 1, true},
        // ZeroC's shared net.
        {1, 1, 32, 32, 8, 3, 1, 1, true},
        {1, 8, 32, 32, 8, 3, 1, 1, true},
    };
    // ZeroC's energy maps.
    for (int64_t k = 5; k <= 10; k++)
        cases.push_back({1, 1, 32, 32, 1, k, 1, 0, false});
    for (const ConvCase &cc : cases) {
        checkConv(cc, rng);
        if (HasFailure())
            return;
    }
}

// ---------------------------------------------------------------------
// nlm_expand
// ---------------------------------------------------------------------

TEST_F(ExactSimdEquivalence, NlmExpandUnaryMatchesLoop)
{
    Rng rng(31);
    for (int64_t n : {1, 2, 5, 24}) {
        for (int64_t c : {1, 2, 3, 8}) {
            Tensor unary = Tensor::randn({n, c}, rng);
            expectSameBytes(
                expandUnaryOracle(unary),
                [&] { return workloads::nlmExpandUnary(unary); },
                "unary n " + std::to_string(n) + " c " +
                    std::to_string(c));
            if (HasFailure())
                return;
        }
    }
}

TEST_F(ExactSimdEquivalence, NlmExpandBinaryPermsMatchesLoop)
{
    Rng rng(37);
    for (int64_t n : {1, 2, 5, 24}) {
        for (int64_t c : {1, 2, 4, 8}) {
            Tensor binary = Tensor::randn({n, n, c}, rng);
            expectSameBytes(
                expandBinaryPermsOracle(binary),
                [&] { return workloads::nlmExpandBinaryPerms(binary); },
                "binary n " + std::to_string(n) + " c " +
                    std::to_string(c));
            if (HasFailure())
                return;
        }
    }
}

// ---------------------------------------------------------------------
// template_match
// ---------------------------------------------------------------------

/** A [1, size, size] image mixing threshold edge values and noise. */
Tensor
edgyImage(int64_t size, Rng &rng)
{
    const std::vector<float> edges = {
        0.0f,
        -0.0f,
        workloads::litThreshold,
        std::nextafter(workloads::litThreshold, 1.0f),
        std::nextafter(workloads::litThreshold, 0.0f),
        -0.5f,
        1.0f,
        std::numeric_limits<float>::quiet_NaN()};
    Tensor image({1, size, size});
    for (float &v : image.data()) {
        v = rng.bernoulli(0.5)
                ? edges[static_cast<size_t>(rng.uniformInt(
                      0, static_cast<int64_t>(edges.size()) - 1))]
                : static_cast<float>(rng.uniformDouble(-0.05, 0.1));
    }
    return image;
}

TEST_F(ExactSimdEquivalence, TemplateIoUMatchesPixelLoop)
{
    Rng rng(53);
    // Cell sizes of the 1x1, 2x2 and 3x3 grids on 48-pixel panels,
    // plus word-boundary sizes.
    for (int64_t cell : {1, 7, 8, 16, 24, 48}) {
        int64_t hw = 2 * cell + 3;
        Tensor image = edgyImage(hw, rng);
        std::vector<Tensor> templates;
        for (int t = 0; t < 5; t++) {
            Tensor tpl = edgyImage(cell, rng).reshaped({cell, cell});
            templates.push_back(tpl);
        }
        // An empty template against an empty cell has IoU 0.
        templates.push_back(Tensor::zeros({cell, cell}));

        std::vector<std::pair<int64_t, int64_t>> origins = {
            {0, 0}, {cell, 3}, {hw - cell, hw - cell}};
        int64_t scores = static_cast<int64_t>(origins.size() *
                                              templates.size());
        Tensor want({scores});
        int64_t s = 0;
        for (const auto &[row, col] : origins) {
            for (const Tensor &tpl : templates)
                want.flat(s++) =
                    pixelIoUOracle(image, row, col, tpl, cell);
        }
        expectSameBytes(
            want,
            [&] {
                Tensor got = Tensor::uninitialized({scores});
                int64_t i = 0;
                for (const auto &[row, col] : origins) {
                    auto cell_mask = workloads::litMask(
                        image.data().data() + row * hw + col, hw, cell);
                    for (const Tensor &tpl : templates)
                        got.flat(i++) = workloads::maskIoU(
                            cell_mask,
                            workloads::litMask(tpl.data().data(), cell,
                                               cell));
                }
                return got;
            },
            "cell " + std::to_string(cell));
        if (HasFailure())
            return;
    }
}

// ---------------------------------------------------------------------
// tanh, exp, sigmoid
// ---------------------------------------------------------------------

float
fromBits(uint32_t w)
{
    float x;
    std::memcpy(&x, &w, sizeof(x));
    return x;
}

uint32_t
toBits(float x)
{
    uint32_t w;
    std::memcpy(&w, &x, sizeof(w));
    return w;
}

std::string
hexBits(float x)
{
    char text[16];
    std::snprintf(text, sizeof(text), "0x%08x", toBits(x));
    return text;
}

/** @p fn's scalar twin on @p in, which the AVX2 twin must equal. */
std::vector<float>
scalarTwin(const tests::Transcendental &fn, const std::vector<float> &in)
{
    std::vector<float> out(in.size());
    simd::setBackend(simd::Backend::Scalar);
    fn.kernel(in.data(), out.data(), static_cast<int64_t>(in.size()));
    simd::resetBackend();
    return out;
}

/**
 * @p fn's span kernel on @p in under every backend equals the scalar
 * twin and, where the host's libm is the reference, the libm
 * expression, byte for byte.
 */
void
expectTwinsMatchLibm(const tests::Transcendental &fn,
                     const std::vector<float> &in, const std::string &what)
{
    std::vector<float> want = scalarTwin(fn, in);
    if (tests::libmNotReference().empty()) {
        for (size_t i = 0; i < in.size(); i++) {
            float ref = fn.libm(in[i]);
            ASSERT_EQ(toBits(want[i]), toBits(ref))
                << fn.name << " " << what << ": scalar twin vs libm at "
                << hexBits(in[i]);
        }
    }
    for (simd::Backend backend : backends()) {
        simd::setBackend(backend);
        std::vector<float> got(in.size());
        fn.kernel(in.data(), got.data(), static_cast<int64_t>(in.size()));
        for (size_t i = 0; i < in.size(); i++) {
            ASSERT_EQ(toBits(got[i]), toBits(want[i]))
                << fn.name << " " << what << ", "
                << simd::backendName(backend) << " backend at "
                << hexBits(in[i]);
        }
    }
}

TEST_F(ExactSimdEquivalence, TranscendentalSpecialValues)
{
    const std::vector<uint32_t> words = {
        0x00000000, 0x80000000, // +-0
        0x7f800000, 0xff800000, // +-inf
        // Quiet NaNs, default and with payloads.
        0x7fc00000, 0xffc00000, 0x7fc12345, 0xffe54321,
        // Signalling NaNs with payloads.
        0x7f800001, 0x7fa5a5a5, 0xff800001, 0xffbfffff,
        // Smallest and largest denormals and normals.
        0x00000001, 0x80000001, 0x007fffff, 0x807fffff,
        0x00800000, 0x80800000, 0x7f7fffff, 0xff7fffff,
    };
    std::vector<float> in;
    for (uint32_t w : words)
        in.push_back(fromBits(w));
    for (const tests::Transcendental &fn : tests::transcendentals())
        expectTwinsMatchLibm(fn, in, "special values");
}

TEST_F(ExactSimdEquivalence, TranscendentalBranchWords)
{
    // Every branch word and threshold of fdlibm's tanhf/expm1f and
    // optimized-routines' expf, 1 ulp to either side and with either
    // sign. tanh passes 2|x| to expm1, so each word's half goes in as
    // well.
    const std::vector<uint32_t> words = {
        // expm1f: 27 ln2, 88.72, 0.5 ln2, 1.5 ln2, 2^-25.
        0x4195b844, 0x42b17218, 0x3eb17218, 0x3f851592, 0x33000000,
        // tanhf: 22, 2^-55, 1.
        0x41b00000, 0x24000000, 0x3f800000,
        // expf: to inf, to 0, to 0x1.4p-75f squared; |x| >= 88.
        0x42b17217, 0xc2cff1b4, 0xc2ce8ecf, 0x42b00000,
    };
    std::vector<float> in;
    for (uint32_t w : words) {
        for (uint32_t near : {w - 1, w, w + 1}) {
            for (uint32_t sign : {0u, 0x80000000u}) {
                float x = fromBits((near & 0x7fffffff) | sign);
                in.push_back(x);
                in.push_back(0.5f * x);
            }
        }
    }
    for (const tests::Transcendental &fn : tests::transcendentals())
        expectTwinsMatchLibm(fn, in, "branch words");
}

TEST_F(ExactSimdEquivalence, TranscendentalGaussianSamples)
{
    for (float sigma : {0.5f, 2.0f, 8.0f, 30.0f}) {
        Rng rng(static_cast<uint64_t>(9000 + sigma * 10));
        std::vector<float> in(4096);
        for (float &x : in)
            x = rng.normal(0.0f, sigma);
        for (const tests::Transcendental &fn : tests::transcendentals()) {
            expectTwinsMatchLibm(fn, in,
                                 "N(0, " + std::to_string(sigma) + ")");
            if (HasFailure())
                return;
        }
    }
}

TEST_F(ExactSimdEquivalence, TranscendentalLengthsAndTails)
{
    // Lengths around the 8-lane vector (masked tails) and around the
    // map frame's 4096-element tile, as span kernels and as tensor ops.
    std::vector<int64_t> lengths;
    for (int64_t n = 0; n <= 17; n++)
        lengths.push_back(n);
    for (int64_t n : {4095, 4096, 4097})
        lengths.push_back(n);
    const float canary = fromBits(0x7fc0dead);
    Rng rng(4711);
    for (int64_t n : lengths) {
        std::vector<float> in(static_cast<size_t>(n));
        for (float &x : in)
            x = rng.normal(0.0f, 8.0f);
        std::string what = "length " + std::to_string(n);
        for (const tests::Transcendental &fn : tests::transcendentals()) {
            expectTwinsMatchLibm(fn, in, what);
            std::vector<float> want = scalarTwin(fn, in);
            for (simd::Backend backend : backends()) {
                // The dead lanes of a masked tail must not be stored.
                simd::setBackend(backend);
                std::vector<float> out(in.size() + 8, canary);
                fn.kernel(in.data(), out.data(), n);
                std::vector<float> inout = in;
                fn.kernel(inout.data(), inout.data(), n);
                for (size_t i = 0; i < out.size(); i++) {
                    bool live = i < in.size();
                    ASSERT_EQ(toBits(out[i]),
                              toBits(live ? want[i] : canary))
                        << fn.name << " " << what << ", "
                        << simd::backendName(backend) << " backend, "
                        << (live ? "element " : "past the end at ") << i;
                    if (live) {
                        ASSERT_EQ(toBits(inout[i]), toBits(want[i]))
                            << fn.name << " " << what << " in place, "
                            << simd::backendName(backend) << " backend";
                    }
                }
            }
            if (n == 0)
                continue;
            Tensor a({n});
            std::copy(in.begin(), in.end(), a.data().begin());
            Tensor expected({n});
            std::copy(want.begin(), want.end(), expected.data().begin());
            expectSameBytes(expected, [&] { return fn.op(a); },
                            std::string(fn.name) + " op, " + what);
            if (HasFailure())
                return;
        }
    }
}

/** The scalar exp twin on one element. */
float
scalarExp(float x)
{
    float y;
    simd::setBackend(simd::Backend::Scalar);
    simd::exp(&x, &y, 1);
    return y;
}

/**
 * The softmax and log-softmax row loops as they were, with the scalar
 * exp twin for std::exp: the twin's match with libm is checked above,
 * so this pins the new row layout (subtract, exponentiate the row,
 * sum in order).
 */
Tensor
softmaxOracle(const Tensor &a, bool log_form)
{
    int64_t row = a.shape().back();
    Tensor out(a.shape());
    auto src = a.data();
    auto dst = out.data();
    for (int64_t r = 0; r < a.numel() / row; r++) {
        auto s = src.subspan(static_cast<size_t>(r * row),
                             static_cast<size_t>(row));
        auto d = dst.subspan(static_cast<size_t>(r * row),
                             static_cast<size_t>(row));
        float mx = *std::max_element(s.begin(), s.end());
        float sum = 0.0f;
        for (size_t i = 0; i < s.size(); i++) {
            float e = scalarExp(s[i] - mx);
            if (!log_form)
                d[i] = e;
            sum += e;
        }
        float log_sum = std::log(sum) + mx;
        for (size_t i = 0; i < s.size(); i++)
            d[i] = log_form ? s[i] - log_sum : d[i] / sum;
    }
    return out;
}

TEST_F(ExactSimdEquivalence, TranscendentalSoftmaxMatchesRowLoop)
{
    Rng rng(606);
    for (int64_t row : {1, 5, 6, 8, 9, 17, 4097}) {
        Tensor a = Tensor::randn({3, row}, rng);
        for (float &v : a.data())
            v *= 6.0f;
        std::string what = "row " + std::to_string(row);
        Tensor want = softmaxOracle(a, false);
        Tensor want_log = softmaxOracle(a, true);
        expectSameBytes(want, [&] { return tensor::softmax(a); },
                        "softmax " + what);
        expectSameBytes(want_log, [&] { return tensor::logSoftmax(a); },
                        "log_softmax " + what);
        if (HasFailure())
            return;
    }
}

} // namespace
