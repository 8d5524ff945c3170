/**
 * @file
 * The order-preserving kernels of util::simd (declared in simd.hh).
 *
 * Each kernel has a scalar twin and an AVX2 version that give every
 * output the same operations in the same order, so the two backends
 * return the same bits. The AVX2 versions gain by putting independent
 * outputs in different lanes, never by splitting one output's sum:
 * FFT butterflies of one stage are independent too, two complex
 * doubles to a vector.
 *
 * This file is compiled with -ffp-contract=off (src/util/CMakeLists.txt).
 * With contraction on, GCC fuses _mm256_add_ps(acc, _mm256_mul_ps(x,
 * w)) inside a target("fma") function into a vfmadd, and a scalar
 * border pixel inlined there into a scalar FMA; either rounds once
 * where the scalar twin rounds twice.
 *
 * The transcendental maps (tanh, exp, sigmoid) repeat the float
 * operations of glibc 2.36's tanhf and expf, so both twins return
 * that libm's bits on every float input:
 *
 *  - tanh is fdlibm's __tanhf over __expm1f (Copyright (C) 1993 by Sun
 *    Microsystems, Inc.; permission to use, copy, modify and
 *    distribute this software is freely granted, provided that this
 *    notice is preserved), as glibc builds it for x86-64: float
 *    arithmetic, no FMA.
 *  - exp is ARM optimized-routines' expf (Copyright (c) 2017-2018,
 *    Arm Limited; MIT license), as glibc 2.36 selects it on FMA
 *    hosts (__expf_fma): double evaluation with a 32-entry table and
 *    a fused multiply-add at exactly five points. The twins fuse at
 *    those five points and nowhere else (std::fma in the scalar twin,
 *    so a host without FMA gets the same bits).
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/simd.hh"
#include "util/simd_target.hh"

// The scalar exp twin needs std::fma five times per element, a libm
// call on the baseline ISA; an FMA clone keeps the scalar backend
// fast on hosts that have the instruction, with the same bits. The
// clones dispatch through an ifunc resolver, which runs before the
// sanitizer runtime starts; instrumented for TSan it crashes the
// program at load, so TSan builds call libm's fma instead.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(__SANITIZE_THREAD__)
#define NSBENCH_FMA_CLONES [[gnu::target_clones("fma", "default")]]
#else
#define NSBENCH_FMA_CLONES
#endif

namespace nsbench::util::simd
{

namespace
{

/** The float with bit pattern @p w. */
constexpr float
floatWord(uint32_t w)
{
    return std::bit_cast<float>(w);
}

/** Constants of fdlibm's __expm1f and __tanhf. */
namespace fdlibm
{
constexpr float kLn2Hi = floatWord(0x3f317180);
constexpr float kLn2Lo = floatWord(0x3717f7d1);
constexpr float kInvLn2 = floatWord(0x3fb8aa3b);
constexpr float kQ1 = floatWord(0xbd088889);
constexpr float kQ2 = floatWord(0x3ad00d01);
constexpr float kQ3 = floatWord(0xb8a670cd);
constexpr float kQ4 = floatWord(0x36867e54);
constexpr float kQ5 = floatWord(0xb457edbb);
/// Branch words on |x|'s bits: 0.5 ln2, 1.5 ln2 and 2^-25 (expm1f),
/// 2^-55, 1 and 22 (tanhf).
constexpr uint32_t kHalfLn2 = 0x3eb17218;
constexpr uint32_t kThreeHalvesLn2 = 0x3f851592;
constexpr uint32_t kTwoM25 = 0x33000000;
constexpr uint32_t kTwoM55 = 0x24000000;
constexpr uint32_t kOne = 0x3f800000;
constexpr uint32_t kTwentyTwo = 0x41b00000;
} // namespace fdlibm

/** Constants of optimized-routines' expf (its exp2f_data). */
namespace aor
{
constexpr double kInvLn2N = std::bit_cast<double>(0x40471547652b82feULL);
constexpr double kShift = std::bit_cast<double>(0x4338000000000000ULL);
constexpr double kC0 = std::bit_cast<double>(0x3ebc6af84b912394ULL);
constexpr double kC1 = std::bit_cast<double>(0x3f2ebfce50fac4f3ULL);
constexpr double kC2 = std::bit_cast<double>(0x3f962e42ff0c52d6ULL);
/// 2^(i/32) with the i/32 part of the exponent taken out.
alignas(64) constexpr uint64_t kTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};
/// |x| >= 88 (abstop above this), inf or NaN take the special cases.
constexpr uint32_t kAbsTop88 = 0x42a;
/// Above: +inf. Below: +0. Below (and not the former): the least
/// denormal, glibc's 0x1.4p-75f squared.
constexpr float kOverflow = floatWord(0x42b17217);
constexpr float kUnderflow = floatWord(0xc2cff1b4);
constexpr float kMayUnderflow = floatWord(0xc2ce8ecf);
} // namespace aor

namespace scalar
{

/**
 * Output (oy, ox) of a convolution plane: the bias, then each tap that
 * lands inside the input, in (channel, ky, kx) order.
 */
[[gnu::always_inline]] inline float
convPixel(const float *in, const float *weight, float bias,
          const ConvGeometry &g, int64_t oy, int64_t ox)
{
    int64_t iy0 = oy * g.stride - g.padding;
    int64_t ix0 = ox * g.stride - g.padding;
    int64_t ky0 = std::max<int64_t>(0, -iy0);
    int64_t ky1 = std::min(g.kernelH, g.height - iy0);
    int64_t kx0 = std::max<int64_t>(0, -ix0);
    int64_t kx1 = std::min(g.kernelW, g.width - ix0);
    float acc = bias;
    for (int64_t ic = 0; ic < g.channels; ic++) {
        for (int64_t ky = ky0; ky < ky1; ky++) {
            const float *irow =
                in + (ic * g.height + iy0 + ky) * g.width;
            const float *wrow =
                weight + (ic * g.kernelH + ky) * g.kernelW;
            for (int64_t kx = kx0; kx < kx1; kx++)
                acc += irow[ix0 + kx] * wrow[kx];
        }
    }
    return acc;
}

void
conv2dPlane(const float *in, const float *weight, float bias,
            float *out, const ConvGeometry &g)
{
    for (int64_t oy = 0; oy < g.outH; oy++) {
        for (int64_t ox = 0; ox < g.outW; ox++)
            out[oy * g.outW + ox] =
                convPixel(in, weight, bias, g, oy, ox);
    }
}

void
conv2dPlanes(const float *in, const float *weight, const float *bias,
             float *out, int64_t planes, const ConvGeometry &g)
{
    const int64_t filter = g.channels * g.kernelH * g.kernelW;
    const int64_t plane = g.outH * g.outW;
    for (int64_t p = 0; p < planes; p++)
        conv2dPlane(in, weight + p * filter, bias ? bias[p] : 0.0f,
                    out + p * plane, g);
}

/**
 * Circular convolution (Step = -1, operand bb[d + i - j]) or
 * correlation (Step = +1, operand bb[i + j]) outputs [i0, i1). Always
 * inlined, so the AVX2 kernel's tail is VEX-encoded too: a call into
 * legacy-SSE code with dirty upper YMM halves stalls on every
 * instruction on many x86 cores.
 */
template <int Step>
[[gnu::always_inline]] inline void
circularRows(const double *a, const double *bb, float *out, int64_t i0,
             int64_t i1, int64_t d)
{
    const double *origin = bb + (Step < 0 ? d : 0);
    for (int64_t i = i0; i < i1; i++) {
        const double *p = origin + i;
        double acc = 0.0;
        for (int64_t j = 0; j < d; j++)
            acc += a[j] * p[Step * j];
        out[i] = static_cast<float>(acc);
    }
}

/** One butterfly: u + x * w and u - x * w in std::complex. */
[[gnu::always_inline]] inline void
butterfly(std::complex<double> *lo, std::complex<double> *hi,
          std::complex<double> w)
{
    std::complex<double> u = *lo;
    std::complex<double> v = *hi * w;
    *lo = u + v;
    *hi = u - v;
}

void
fftButterflies(std::complex<double> *x, const std::complex<double> *tw,
               int64_t n)
{
    for (int64_t half = 1; half < n; tw += half, half <<= 1) {
        for (int64_t i = 0; i < n; i += 2 * half) {
            for (int64_t k = 0; k < half; k++)
                butterfly(x + i + k, x + i + k + half, tw[k]);
        }
    }
}

[[gnu::always_inline]] inline void
complexMulInPlace(std::complex<double> *a, const std::complex<double> *b,
                  int64_t i0, int64_t n)
{
    for (int64_t i = i0; i < n; i++)
        a[i] *= b[i];
}

/**
 * fdlibm's __expm1f on the arguments tanh passes it: 2|x| in [2, 44)
 * and -2|x| in (-2, -2^-54]. Its other branches (-1 below -27 ln2,
 * overflow, inf, NaN, k = +1) are unreachable there and left out.
 */
[[gnu::always_inline]] inline float
expm1ForTanh(float x)
{
    using namespace fdlibm;
    uint32_t hx = std::bit_cast<uint32_t>(x) & 0x7fffffff;
    bool negative = std::signbit(x);
    int32_t k = 0;
    float c = 0.0f;
    if (hx > kHalfLn2) {
        float hi, lo;
        if (hx < kThreeHalvesLn2) {
            // x < 0 on this domain.
            hi = x + kLn2Hi;
            lo = -kLn2Lo;
            k = -1;
        } else {
            k = static_cast<int32_t>(kInvLn2 * x +
                                     (negative ? -0.5f : 0.5f));
            float t = static_cast<float>(k);
            hi = x - t * kLn2Hi; // t * ln2_hi is exact here.
            lo = t * kLn2Lo;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if (hx < kTwoM25) {
        return x;
    }
    float hfx = 0.5f * x;
    float hxs = x * hfx;
    float r1 = 1.0f +
               hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 +
                                                          hxs * kQ5))));
    float t = 3.0f - r1 * hfx;
    float e = hxs * ((r1 - t) / (6.0f - x * t));
    if (k == 0)
        return x - (x * e - hxs);
    e = (x * (e - c) - c);
    e -= hxs;
    if (k == -1)
        return 0.5f * (x - e) - 0.5f;
    // Adds k to y's exponent.
    auto scale = [k](float y) {
        return std::bit_cast<float>(std::bit_cast<uint32_t>(y) +
                                    (static_cast<uint32_t>(k) << 23));
    };
    if (k <= -2 || k > 56)
        return scale(1.0f - (e - x)) - 1.0f;
    if (k < 23)
        return scale(floatWord(0x3f800000 - (0x1000000 >> k)) - (e - x));
    float y = x - (e + floatWord(static_cast<uint32_t>(0x7f - k) << 23));
    y += 1.0f;
    return scale(y);
}

/** fdlibm's __tanhf. */
[[gnu::always_inline]] inline float
tanh1(float x)
{
    using namespace fdlibm;
    uint32_t ix = std::bit_cast<uint32_t>(x) & 0x7fffffff;
    bool negative = std::signbit(x);
    if (ix >= 0x7f800000) // inf or NaN
        return negative ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
    float z;
    if (ix < kTwentyTwo) {
        if (ix < kTwoM55) // +-0 included
            return x * (1.0f + x);
        if (ix >= kOne) {
            float t = expm1ForTanh(2.0f * std::fabs(x));
            z = 1.0f - 2.0f / (t + 2.0f);
        } else {
            float t = expm1ForTanh(-2.0f * std::fabs(x));
            z = -t / (t + 2.0f);
        }
    } else {
        z = 1.0f - 1.0e-30f;
    }
    return negative ? -z : z;
}

/** optimized-routines' expf, FMA at glibc's five points. */
[[gnu::always_inline]] inline float
exp1(float x)
{
    using namespace aor;
    uint32_t abstop = (std::bit_cast<uint32_t>(x) >> 20) & 0x7ff;
    if (abstop > kAbsTop88) [[unlikely]] {
        if (x == -std::numeric_limits<float>::infinity())
            return 0.0f;
        if (abstop >= 0x7f8) // inf or NaN
            return x + x;
        if (x > kOverflow)
            return std::numeric_limits<float>::infinity();
        if (x < kUnderflow)
            return 0.0f;
        if (x < kMayUnderflow)
            return 0x1.4p-75f * 0x1.4p-75f;
    }
    double xd = x;
    double kd = std::fma(kInvLn2N, xd, kShift);
    uint64_t ki = std::bit_cast<uint64_t>(kd);
    kd -= kShift;
    double r = std::fma(kInvLn2N, xd, -kd);
    double s = std::bit_cast<double>(kTable[ki % 32] + (ki << 47));
    double z = std::fma(kC0, r, kC1);
    double r2 = r * r;
    double y = std::fma(kC2, r, 1.0);
    y = std::fma(z, r2, y);
    return static_cast<float>(y * s);
}

void
tanh(const float *a, float *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = tanh1(a[i]);
}

NSBENCH_FMA_CLONES void
exp(const float *a, float *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = exp1(a[i]);
}

NSBENCH_FMA_CLONES void
sigmoid(const float *a, float *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = 1.0f / (1.0f + exp1(-a[i]));
}

} // namespace scalar

#if NSBENCH_HAVE_AVX2_KERNELS

namespace avx2
{

/**
 * acc + x * w: a multiply, then an add with the running sum as its
 * first source, each rounded, as the scalar twin's `acc += x * w`.
 * Where both operands of an add are NaN, x86 returns the first
 * source's NaN, as the scalar twin's add does; GCC may commute the
 * operands of _mm256_add_ps, so the instructions are written out
 * (which also keeps the scheduler from hoisting every product of a tap
 * ahead of its adds).
 */
[[gnu::always_inline]] NSBENCH_TGT inline __m256
mulAdd(__m256 acc, __m256 x, __m256 w)
{
    __m256 product;
    asm("vmulps %[x], %[w], %[product]\n\t"
        "vaddps %[product], %[acc], %[acc]"
        : [acc] "+x"(acc), [product] "=&x"(product)
        : [x] "x"(x), [w] "x"(w));
    return acc;
}

/** mulAdd with x the 8 floats at @p p, which the multiply reads from
 * memory: for an input that no other sum of the tap uses. */
[[gnu::always_inline]] NSBENCH_TGT inline __m256
mulAddAt(__m256 acc, const float *p, __m256 w)
{
    __m256 product;
    asm("vmulps %[x], %[w], %[product]\n\t"
        "vaddps %[product], %[acc], %[acc]"
        : [acc] "+x"(acc), [product] "=&x"(product)
        : [x] "m"(*reinterpret_cast<const __m256_u *>(p)), [w] "x"(w));
    return acc;
}

/**
 * The lanes of a vector that a tap with lanes outside the input row
 * reads inside it: @c inside is all ones in those lanes, and @c
 * outside is -0 in the others.
 */
struct EdgeMask
{
    __m256i inside;
    __m256 outside;
};

/** Lanes l whose column @p col + l lies in [0, @p width), as a mask. */
[[gnu::always_inline]] NSBENCH_TGT inline __m256i
columnsInside(int64_t col, int64_t width)
{
    __m256i lane = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int32_t>(col)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    return _mm256_and_si256(
        _mm256_cmpgt_epi32(lane, _mm256_set1_epi32(-1)),
        _mm256_cmpgt_epi32(
            _mm256_set1_epi32(static_cast<int32_t>(width)), lane));
}

/** The EdgeMask of lanes reading columns @p col + l. */
[[gnu::always_inline]] NSBENCH_TGT inline EdgeMask
edgeMask(int64_t col, int64_t width)
{
    __m256i inside = columnsInside(col, width);
    return {inside, _mm256_andnot_ps(_mm256_castsi256_ps(inside),
                                     _mm256_set1_ps(-0.0f))};
}

/**
 * mulAdd in the lanes inside @p m; the lanes outside add -0 instead.
 * x + -0 is x, bit for bit, for every float but a signalling NaN,
 * which it quiets. A sum is one only while it is still a signalling-NaN
 * bias, which the first tap that reaches it quiets too; an output that
 * no tap reaches is its bias, which convPlanes stores afresh. So the
 * outside lanes keep their sums. Never 0 * w: -0 + 0 is +0, and
 * 0 * inf is NaN.
 */
[[gnu::always_inline]] NSBENCH_TGT inline __m256
maskedMulAdd(__m256 acc, __m256 x, __m256 w, const EdgeMask &m)
{
    __m256 product;
    asm("vmulps %[x], %[w], %[product]\n\t"
        "vandps %[inside], %[product], %[product]\n\t"
        "vorps %[outside], %[product], %[product]\n\t"
        "vaddps %[product], %[acc], %[acc]"
        : [acc] "+x"(acc), [product] "=&x"(product)
        : [x] "x"(x), [w] "x"(w), [inside] "x"(m.inside),
          [outside] "x"(m.outside));
    return acc;
}

/**
 * One kx tap of a tile: acc[c][r][v] += x[r * width + 8 * v + l] *
 * w[c * filter] in lane l. Masked, vector v loads and adds only the
 * lanes inside m[v]; unmasked, @p m is not read.
 */
template <int C, int R, int V, bool Masked>
[[gnu::always_inline]] NSBENCH_TGT inline void
convTap(__m256 (&acc)[C][R][V], const float *x, const float *w,
        int64_t width, int64_t filter, const EdgeMask *m)
{
    __m256 wv[C];
#pragma GCC unroll 8
    for (int c = 0; c < C; c++)
        wv[c] = _mm256_broadcast_ss(w + c * filter);
#pragma GCC unroll 8
    for (int r = 0; r < R; r++) {
#pragma GCC unroll 8
        for (int v = 0; v < V; v++) {
            const float *p = x + r * width + 8 * v;
            if constexpr (Masked) {
                __m256 xv = _mm256_maskload_ps(p, m[v].inside);
#pragma GCC unroll 8
                for (int c = 0; c < C; c++)
                    acc[c][r][v] = maskedMulAdd(acc[c][r][v], xv, wv[c], m[v]);
            } else if constexpr (C == 1) {
                acc[0][r][v] = mulAddAt(acc[0][r][v], p, wv[0]);
            } else {
                __m256 xv = _mm256_loadu_ps(p);
#pragma GCC unroll 8
                for (int c = 0; c < C; c++)
                    acc[c][r][v] = mulAdd(acc[c][r][v], xv, wv[c]);
            }
        }
    }
}

/**
 * The kx taps of an edge vector, whose lane l reads column col + kx + l
 * for tap kx: [ka, kl) have lanes outside the input row, left of it
 * among them; [kl, kh) have none; [kh, kb) have lanes right of it; the
 * others have no lane inside and are skipped. A tap with lanes left of
 * the row has col + kx in [-7, 0), one with lanes right of it col + kx
 * in (width - 8, width), so each masked run holds at most 7 taps, and
 * left[kx - ka] and right[kx - kh] are their masks.
 */
struct EdgeTaps
{
    int64_t ka, kl, kh, kb;
    EdgeMask left[7], right[7];
};

/**
 * The taps of a tile in (ic, ky, kx) order: @p rows kernel rows of
 * each input channel, from @p x and @p w on. With @p edge (one vector
 * a row), its masked taps load and add only the lanes inside the row;
 * without, every tap has all its lanes inside.
 */
template <int C, int R, int V, bool Edges>
[[gnu::always_inline]] NSBENCH_TGT inline void
convTaps(__m256 (&acc)[C][R][V], const float *x, const float *w,
         const ConvGeometry &g, int64_t rows, const EdgeTaps *edge)
{
    const int64_t filter = g.channels * g.kernelH * g.kernelW;
    const int64_t skip = (g.height - rows) * g.width;
    const int64_t wskip = (g.kernelH - rows) * g.kernelW;
    const int64_t ka = Edges ? edge->ka : 0;
    const int64_t kh = Edges ? edge->kh : g.kernelW;
    for (int64_t ic = 0; ic < g.channels; ic++) {
        for (int64_t row = 0; row < rows; row++) {
            int64_t kx = ka;
            if constexpr (Edges) {
                for (; kx < edge->kl; kx++)
                    convTap<C, R, V, true>(acc, x + kx, w + kx, g.width,
                                           filter, edge->left + (kx - ka));
            }
            for (; kx < kh; kx++)
                convTap<C, R, V, false>(acc, x + kx, w + kx, g.width,
                                        filter, nullptr);
            if constexpr (Edges) {
                for (; kx < edge->kb; kx++)
                    convTap<C, R, V, true>(acc, x + kx, w + kx, g.width,
                                           filter, edge->right + (kx - kh));
            }
            x += g.width;
            w += g.kernelW;
        }
        x += skip;
        w += wskip;
    }
}

/** Start of a row's vector @p i: 8i, but a last partial vector
 * overlaps the one before it and recomputes identical values, and a
 * plane narrower than a vector stores its live lanes only. */
inline int64_t
vectorStart(const ConvGeometry &g, int64_t i)
{
    return std::min(8 * i, std::max<int64_t>(0, g.outW - 8));
}

/**
 * Stride-1 outputs of C consecutive planes, rows [oy, oy + R), row
 * vectors [first, last), in tiles of V vectors (the rest in smaller
 * tiles): one vector per plane, row and start, each lane one output
 * that adds its taps in the scalar order. Every row takes the ky taps
 * of the first (callers pass R > 1 only for rows that take them all).
 * Without Edges every tap of every vector lies inside the input row;
 * with (one vector a tile), a tap with some lanes outside loads and
 * adds the lanes inside only, and one with none is skipped. Lanes past
 * the plane's width are computed, never stored.
 */
template <int C, int R, int V, bool Edges>
NSBENCH_TGT void
convRun(const float *in, const float *weight, const float *bias,
        float *out, const ConvGeometry &g, int64_t oy, int64_t first,
        int64_t last)
{
    static_assert(!Edges || V == 1, "an edge tile is one vector wide");
    const int64_t iy0 = oy - g.padding;
    const int64_t ky0 = std::max<int64_t>(0, -iy0);
    const int64_t rows = std::min(g.kernelH, g.height - iy0) - ky0;
    const float *x = in + (iy0 + ky0) * g.width - g.padding;
    const float *w = weight + ky0 * g.kernelW;
    const int64_t plane = g.outH * g.outW;
    for (; first + V <= last; first += V) {
        // Vector v of the tile starts at ox + 8v: a wider tile stops
        // short of a last vector that overlaps the one before it.
        const int64_t ox = vectorStart(g, first);
        if (V > 1 && vectorStart(g, first + V - 1) != ox + 8 * (V - 1))
            break;
        __m256 acc[C][R][V];
#pragma GCC unroll 8
        for (int c = 0; c < C; c++) {
            __m256 b = _mm256_set1_ps(bias ? bias[c] : 0.0f);
#pragma GCC unroll 8
            for (int r = 0; r < R; r++) {
#pragma GCC unroll 8
                for (int v = 0; v < V; v++)
                    acc[c][r][v] = b;
            }
        }
        if constexpr (Edges) {
            const int64_t col = ox - g.padding;
            EdgeTaps e;
            e.ka = std::clamp<int64_t>(-col - 7, 0, g.kernelW);
            e.kb = std::clamp<int64_t>(g.width - col, 0, g.kernelW);
            e.kl = std::clamp<int64_t>(-col, e.ka, e.kb);
            e.kh = std::clamp<int64_t>(g.width - 7 - col, e.kl, e.kb);
            for (int64_t kx = e.ka; kx < e.kl; kx++)
                e.left[kx - e.ka] = edgeMask(col + kx, g.width);
            for (int64_t kx = e.kh; kx < e.kb; kx++)
                e.right[kx - e.kh] = edgeMask(col + kx, g.width);
            convTaps<C, R, V, true>(acc, x + ox, w, g, rows, &e);
        } else {
            convTaps<C, R, V, false>(acc, x + ox, w, g, rows, nullptr);
        }
#pragma GCC unroll 8
        for (int v = 0; v < V; v++) {
            float *o = out + oy * g.outW + ox + 8 * v;
            __m256i live = columnsInside(ox, g.outW);
#pragma GCC unroll 8
            for (int c = 0; c < C; c++) {
#pragma GCC unroll 8
                for (int r = 0; r < R; r++) {
                    float *p = o + c * plane + r * g.outW;
                    if (!Edges || ox + 8 <= g.outW)
                        _mm256_storeu_ps(p, acc[c][r][v]);
                    else
                        _mm256_maskstore_ps(p, live, acc[c][r][v]);
                }
            }
        }
    }
    if constexpr (V > 1) {
        if (first < last)
            convRun<C, R, V - 1, Edges>(in, weight, bias, out, g, oy, first,
                                        last);
    }
}

/** Rows [oy, oy + R) of C planes: the vectors whose taps all lie
 * inside the input row in tiles of V, the others one at a time. */
template <int C, int R, int V>
NSBENCH_TGT void
convRows(const float *in, const float *weight, const float *bias,
         float *out, const ConvGeometry &g, int64_t oy)
{
    const int64_t count = (g.outW + 7) / 8;
    int64_t first = 0;
    while (first < count && vectorStart(g, first) < g.padding)
        first++;
    int64_t last = count;
    while (last > first && vectorStart(g, last - 1) + 7 + g.kernelW -
                                   1 - g.padding >=
                               g.width)
        last--;
    convRun<C, R, 1, true>(in, weight, bias, out, g, oy, 0, first);
    convRun<C, R, V, false>(in, weight, bias, out, g, oy, first, last);
    convRun<C, R, 1, true>(in, weight, bias, out, g, oy, last, count);
}

/**
 * C consecutive output planes in tiles of R rows by V vectors: C * R *
 * V sums in flight per tap, enough to cover the add's latency. Rows
 * that lose ky taps to the padding run one at a time.
 */
template <int C, int R, int V>
NSBENCH_TGT void
convPlanes(const float *in, const float *weight, const float *bias,
           float *out, const ConvGeometry &g)
{
    // Rows [y0, y1) take every ky tap.
    const int64_t y0 = std::min(g.padding, g.outH);
    const int64_t y1 = std::max(
        y0, std::min(g.outH, g.height + g.padding - g.kernelH + 1));
    int64_t oy = 0;
    for (; oy < y0; oy++)
        convRows<C, 1, V>(in, weight, bias, out, g, oy);
    for (; oy + R <= y1; oy += R)
        convRows<C, R, V>(in, weight, bias, out, g, oy);
    // The last partial block overlaps the one before it, as vectors do.
    if (oy < y1 && y1 - y0 >= R) {
        convRows<C, R, V>(in, weight, bias, out, g, y1 - R);
        oy = y1;
    }
    for (; oy < g.outH; oy++)
        convRows<C, 1, V>(in, weight, bias, out, g, oy);
    // With padding >= kernelW, the columns [0, left) and [right, outW)
    // have no tap inside the input: each output there is its bias, to
    // which the masked taps added -0. That keeps every value but a
    // signalling NaN, so store the biases as they are.
    if (bias && g.padding >= g.kernelW) {
        const int64_t left = g.padding - g.kernelW + 1;
        const int64_t right = g.width + g.padding;
        for (int c = 0; c < C; c++) {
            for (int64_t y = 0; y < g.outH; y++) {
                float *row = out + (c * g.outH + y) * g.outW;
                std::fill(row, row + left, bias[c]);
                std::fill(row + right, row + g.outW, bias[c]);
            }
        }
    }
}

NSBENCH_TGT void
conv2dPlanes(const float *in, const float *weight, const float *bias,
             float *out, int64_t planes, const ConvGeometry &g)
{
    if (g.stride != 1) {
        scalar::conv2dPlanes(in, weight, bias, out, planes, g);
        return;
    }
    const int64_t filter = g.channels * g.kernelH * g.kernelW;
    const int64_t plane = g.outH * g.outW;
    for (int64_t p = 0; p < planes; p += kConvPlaneBlock) {
        const float *w = weight + p * filter;
        const float *b = bias ? bias + p : nullptr;
        float *o = out + p * plane;
        switch (std::min(kConvPlaneBlock, planes - p)) {
        case 4:
            convPlanes<4, 2, 1>(in, w, b, o, g);
            break;
        case 3:
            convPlanes<3, 3, 1>(in, w, b, o, g);
            break;
        case 2:
            convPlanes<2, 4, 1>(in, w, b, o, g);
            break;
        default:
            convPlanes<1, 4, 2>(in, w, b, o, g);
            break;
        }
    }
}

/**
 * 4N circular outputs from i, one per double lane. The float * float
 * product is exact in double, so the FMA rounds exactly where the
 * scalar twin's add does.
 */
template <int Step, int N>
NSBENCH_TGT inline void
circularBlock(const double *a, const double *origin, float *out,
              int64_t i, int64_t d)
{
    __m256d acc[N];
#pragma GCC unroll 8
    for (int n = 0; n < N; n++)
        acc[n] = _mm256_setzero_pd();
    const double *p = origin + i;
    for (int64_t j = 0; j < d; j++, p += Step) {
        __m256d av = _mm256_broadcast_sd(a + j);
#pragma GCC unroll 8
        for (int n = 0; n < N; n++)
            acc[n] = _mm256_fmadd_pd(av, _mm256_loadu_pd(p + 4 * n),
                                     acc[n]);
    }
#pragma GCC unroll 8
    for (int n = 0; n < N; n++)
        _mm_storeu_ps(out + i + 4 * n, _mm256_cvtpd_ps(acc[n]));
}

template <int Step>
NSBENCH_TGT void
circularRows(const double *a, const double *bb, float *out, int64_t i0,
             int64_t i1, int64_t d)
{
    const double *origin = bb + (Step < 0 ? d : 0);
    int64_t i = i0;
    // Eight independent accumulators cover the FMA latency.
    for (; i + 32 <= i1; i += 32)
        circularBlock<Step, 8>(a, origin, out, i, d);
    for (; i + 4 <= i1; i += 4)
        circularBlock<Step, 1>(a, origin, out, i, d);
    scalar::circularRows<Step>(a, bb, out, i, i1, d);
}

/**
 * x * w for the two complex lanes (re, im, re, im) of @p x and @p w:
 * (ac - bd, bc + ad) from two multiplies and an addsub, the inline
 * part of std::complex<double>'s product. That product calls __muldc3
 * when both parts come out NaN, so a pair with any NaN lane is redone
 * through std::complex.
 */
NSBENCH_TGT inline __m256d
complexMul2(__m256d x, __m256d w)
{
    __m256d p = _mm256_addsub_pd(
        _mm256_mul_pd(x, _mm256_movedup_pd(w)),
        _mm256_mul_pd(_mm256_permute_pd(x, 0x5),
                      _mm256_permute_pd(w, 0xf)));
    if (_mm256_movemask_pd(_mm256_cmp_pd(p, p, _CMP_UNORD_Q)) == 0)
        [[likely]]
        return p;
    alignas(32) std::complex<double> xs[2], ws[2];
    _mm256_store_pd(reinterpret_cast<double *>(xs), x);
    _mm256_store_pd(reinterpret_cast<double *>(ws), w);
    xs[0] *= ws[0];
    xs[1] *= ws[1];
    return _mm256_load_pd(reinterpret_cast<const double *>(xs));
}

NSBENCH_TGT void
fftButterflies(std::complex<double> *values,
               const std::complex<double> *twiddles, int64_t n)
{
    if (n < 4) {
        scalar::fftButterflies(values, twiddles, n);
        return;
    }
    // std::complex<double> arrays may be read as interleaved doubles
    // (array-oriented access, [complex.numbers]).
    auto *x = reinterpret_cast<double *>(values);
    const auto *tw = reinterpret_cast<const double *>(twiddles);
    // half = 1: blocks (x[i], x[i + 1]) and (x[i + 2], x[i + 3]) side
    // by side, both multiplied by w_0 = (1, 0) as the scalar twin
    // does (for a = -0 and b < 0, a * 1 - b * 0 is +0).
    __m256d w0 = _mm256_broadcast_pd(reinterpret_cast<const __m128d *>(tw));
    for (int64_t i = 0; i < 2 * n; i += 8) {
        __m256d p = _mm256_loadu_pd(x + i);
        __m256d q = _mm256_loadu_pd(x + i + 4);
        __m256d u = _mm256_permute2f128_pd(p, q, 0x20);
        __m256d v =
            complexMul2(_mm256_permute2f128_pd(p, q, 0x31), w0);
        __m256d sum = _mm256_add_pd(u, v);
        __m256d diff = _mm256_sub_pd(u, v);
        _mm256_storeu_pd(x + i, _mm256_permute2f128_pd(sum, diff, 0x20));
        _mm256_storeu_pd(x + i + 4,
                         _mm256_permute2f128_pd(sum, diff, 0x31));
    }
    tw += 2;
    // half >= 2: two consecutive butterflies of a block per vector.
    for (int64_t half = 2; half < n; tw += 2 * half, half <<= 1) {
        for (int64_t i = 0; i < 2 * n; i += 4 * half) {
            double *lo = x + i;
            double *hi = lo + 2 * half;
            for (int64_t k = 0; k < 2 * half; k += 4) {
                __m256d u = _mm256_loadu_pd(lo + k);
                __m256d v = complexMul2(_mm256_loadu_pd(hi + k),
                                        _mm256_loadu_pd(tw + k));
                _mm256_storeu_pd(lo + k, _mm256_add_pd(u, v));
                _mm256_storeu_pd(hi + k, _mm256_sub_pd(u, v));
            }
        }
    }
}

NSBENCH_TGT void
complexMulInPlace(std::complex<double> *a, const std::complex<double> *b,
                  int64_t n)
{
    auto *pa = reinterpret_cast<double *>(a);
    const auto *pb = reinterpret_cast<const double *>(b);
    int64_t i = 0;
    for (; i + 2 <= n; i += 2)
        _mm256_storeu_pd(pa + 2 * i,
                         complexMul2(_mm256_loadu_pd(pa + 2 * i),
                                     _mm256_loadu_pd(pb + 2 * i)));
    scalar::complexMulInPlace(a, b, i, n);
}

NSBENCH_TGT inline __m256i
splat(int32_t v)
{
    return _mm256_set1_epi32(v);
}

NSBENCH_TGT inline __m256
splat(float v)
{
    return _mm256_set1_ps(v);
}

/** Lanes where the bits @p a (sign clear) are below @p w, as a mask. */
NSBENCH_TGT inline __m256
below(__m256i a, uint32_t w)
{
    return _mm256_castsi256_ps(
        _mm256_cmpgt_epi32(splat(static_cast<int32_t>(w)), a));
}

/**
 * scalar::tanh1 in eight lanes. The branches of tanh1 and expm1ForTanh
 * are computed and each lane picks its own by blends, except two that
 * no output can tell apart from the branch the lane takes instead:
 *
 *  - expm1's k = 23..56 branch (|x| above about 7.8). Those lanes take
 *    the k = 2..22 form, whose expm1 may differ in its last bits.
 *    There 2 / (t + 2) is below 2^-21, so that moves it by a few times
 *    2^-45, against a result ulp of 2^-24.
 *  - fdlibm's forced k = -1 below 1.5 ln2. The lanes where
 *    invln2 * a - 0.5 rounds to -2 (|x| near 0.52) keep k = -2 and
 *    take the k <= -2 form.
 *
 * tests/util/exhaustive_transcendental_test.cc holds this twin to the
 * scalar one and to glibc on all 2^32 inputs, so neither shortcut
 * changes a bit.
 */
[[gnu::always_inline]] NSBENCH_TGT inline __m256
tanh8(__m256 x)
{
    using namespace fdlibm;
    const __m256 sign_bit = splat(-0.0f);
    __m256 ax = _mm256_andnot_ps(sign_bit, x);
    __m256i ix = _mm256_castps_si256(ax);
    __m256 ge_one = _mm256_cmp_ps(ax, splat(1.0f), _CMP_GE_OQ);

    // expm1's argument: 2|x| when |x| >= 1, else -2|x|.
    __m256 u = _mm256_mul_ps(splat(2.0f), ax);
    __m256 a = _mm256_or_ps(u, _mm256_andnot_ps(ge_one, sign_bit));
    __m256i hu = _mm256_castps_si256(u);

    // k: 0 up to 0.5 ln2, else invln2 * a +- 0.5 truncated (-1 below
    // 1.5 ln2, where a < 0, but for the lanes that round to -2).
    // t * ln2_hi is exact.
    __m256 half = _mm256_or_ps(splat(0.5f), _mm256_and_ps(a, sign_bit));
    __m256i k = _mm256_cvttps_epi32(
        _mm256_add_ps(_mm256_mul_ps(splat(kInvLn2), a), half));
    k = _mm256_andnot_si256(
        _mm256_castps_si256(below(hu, kHalfLn2 + 1)), k);
    __m256 t = _mm256_cvtepi32_ps(k);
    __m256 hi = _mm256_sub_ps(a, _mm256_mul_ps(t, splat(kLn2Hi)));
    __m256 lo = _mm256_mul_ps(t, splat(kLn2Lo));
    __m256 xr = _mm256_sub_ps(hi, lo);
    __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

    // The primary range, then e folded with c (c = 0 when k = 0).
    __m256 hfx = _mm256_mul_ps(splat(0.5f), xr);
    __m256 hxs = _mm256_mul_ps(xr, hfx);
    __m256 p = _mm256_add_ps(splat(kQ4), _mm256_mul_ps(hxs, splat(kQ5)));
    p = _mm256_add_ps(splat(kQ3), _mm256_mul_ps(hxs, p));
    p = _mm256_add_ps(splat(kQ2), _mm256_mul_ps(hxs, p));
    p = _mm256_add_ps(splat(kQ1), _mm256_mul_ps(hxs, p));
    __m256 r1 = _mm256_add_ps(splat(1.0f), _mm256_mul_ps(hxs, p));
    __m256 tt = _mm256_sub_ps(splat(3.0f), _mm256_mul_ps(r1, hfx));
    __m256 e = _mm256_mul_ps(
        hxs, _mm256_div_ps(_mm256_sub_ps(r1, tt),
                           _mm256_sub_ps(splat(6.0f),
                                         _mm256_mul_ps(xr, tt))));
    e = _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c);
    e = _mm256_sub_ps(e, hxs);

    // The k cases. 0x1000000 >> k is 0 for k < 0 or k >= 32
    // (vpsrlvd), so `low` is fdlibm's 1 - 2^-k for 2 <= k <= 22 and
    // its 1 for k <= -2 or k > 56; k = 23..56 takes it too (above).
    __m256i k23 = _mm256_slli_epi32(k, 23);
    __m256 e_minus_x = _mm256_sub_ps(e, xr);
    __m256 low = _mm256_castsi256_ps(_mm256_sub_epi32(
        splat(0x3f800000), _mm256_srlv_epi32(splat(0x1000000), k)));
    low = _mm256_castsi256_ps(_mm256_add_epi32(
        _mm256_castps_si256(_mm256_sub_ps(low, e_minus_x)), k23));

    __m256 em = _mm256_sub_ps(xr, e); // k = 0
    __m256 k_minus_one =
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(k, splat(-1)));
    em = _mm256_blendv_ps(
        em,
        _mm256_sub_ps(_mm256_mul_ps(splat(0.5f), _mm256_sub_ps(xr, e)),
                      splat(0.5f)),
        k_minus_one);
    em = _mm256_blendv_ps(
        em, low, _mm256_castsi256_ps(_mm256_cmpgt_epi32(k, splat(1))));
    __m256 far = _mm256_castsi256_ps(
        _mm256_or_si256(_mm256_cmpgt_epi32(splat(-1), k),
                        _mm256_cmpgt_epi32(k, splat(56))));
    em = _mm256_blendv_ps(em, _mm256_sub_ps(low, splat(1.0f)), far);
    em = _mm256_blendv_ps(em, a, below(hu, kTwoM25));

    // tanh's cases. Both divisions share the denominator t + 2.
    __m256 q = _mm256_div_ps(
        _mm256_blendv_ps(_mm256_xor_ps(em, sign_bit), splat(2.0f),
                         ge_one),
        _mm256_add_ps(em, splat(2.0f)));
    __m256 z = _mm256_blendv_ps(q, _mm256_sub_ps(splat(1.0f), q), ge_one);
    z = _mm256_blendv_ps(z, splat(1.0f),
                         _mm256_cmp_ps(ax, splat(22.0f), _CMP_NLT_UQ));
    z = _mm256_xor_ps(z, _mm256_and_ps(x, sign_bit));
    z = _mm256_blendv_ps(z, x, below(ix, kTwoM55));
    return _mm256_blendv_ps(z, _mm256_add_ps(x, x),
                            _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

/** scalar::exp1 on four lanes, in double. */
NSBENCH_TGT inline __m128
exp4(__m128 x)
{
    using namespace aor;
    __m256d xd = _mm256_cvtps_pd(x);
    __m256d inv_ln2n = _mm256_set1_pd(kInvLn2N);
    __m256d kd = _mm256_fmadd_pd(inv_ln2n, xd, _mm256_set1_pd(kShift));
    __m256i ki = _mm256_castpd_si256(kd);
    kd = _mm256_sub_pd(kd, _mm256_set1_pd(kShift));
    __m256d r = _mm256_fmsub_pd(inv_ln2n, xd, kd);
    __m256i t = _mm256_i64gather_epi64(
        reinterpret_cast<const long long *>(kTable),
        _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8);
    __m256d s = _mm256_castsi256_pd(
        _mm256_add_epi64(t, _mm256_slli_epi64(ki, 47)));
    __m256d z = _mm256_fmadd_pd(_mm256_set1_pd(kC0), r,
                                _mm256_set1_pd(kC1));
    __m256d r2 = _mm256_mul_pd(r, r);
    __m256d y = _mm256_fmadd_pd(_mm256_set1_pd(kC2), r,
                                _mm256_set1_pd(1.0));
    y = _mm256_fmadd_pd(z, r2, y);
    return _mm256_cvtpd_ps(_mm256_mul_pd(y, s));
}

/** scalar::exp1 in eight lanes; the special cases by blends. */
NSBENCH_TGT inline __m256
exp8(__m256 x)
{
    using namespace aor;
    __m256 y = _mm256_set_m128(exp4(_mm256_extractf128_ps(x, 1)),
                               exp4(_mm256_castps256_ps128(x)));
    __m256i abstop = _mm256_and_si256(
        _mm256_srli_epi32(_mm256_castps_si256(x), 20), splat(0x7ff));
    __m256i special =
        _mm256_cmpgt_epi32(abstop, splat(static_cast<int32_t>(kAbsTop88)));
    if (_mm256_testz_si256(special, special)) [[likely]]
        return y;
    y = _mm256_blendv_ps(y, _mm256_castsi256_ps(splat(1)),
                         _mm256_cmp_ps(x, splat(kMayUnderflow),
                                       _CMP_LT_OQ));
    y = _mm256_blendv_ps(y, _mm256_setzero_ps(),
                         _mm256_cmp_ps(x, splat(kUnderflow), _CMP_LT_OQ));
    y = _mm256_blendv_ps(
        y, splat(std::numeric_limits<float>::infinity()),
        _mm256_cmp_ps(x, splat(kOverflow), _CMP_GT_OQ));
    return _mm256_blendv_ps(y, _mm256_add_ps(x, x),
                            _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

NSBENCH_TGT inline __m256
sigmoid8(__m256 x)
{
    __m256 e = exp8(_mm256_xor_ps(x, splat(-0.0f)));
    return _mm256_div_ps(splat(1.0f), _mm256_add_ps(splat(1.0f), e));
}

/**
 * out[i] = F(a[i]) eight lanes at a time; the n % 8 tail runs F on a
 * masked load (zeros in the dead lanes) and stores its live lanes.
 * tanh8 is one dependent chain of about 40 operations, longer than
 * the out-of-order window can overlap, so the main loop runs four
 * vectors per step and the pre-RA scheduler (src/util/CMakeLists.txt)
 * interleaves their chains: about 1.4x on tanh.
 */
template <__m256 (*F)(__m256)>
NSBENCH_TGT void
mapLanes(const float *a, float *out, int64_t n)
{
    int64_t i = 0;
    for (; i + 32 <= n; i += 32) {
        __m256 y[4];
#pragma GCC unroll 4
        for (int v = 0; v < 4; v++)
            y[v] = F(_mm256_loadu_ps(a + i + 8 * v));
#pragma GCC unroll 4
        for (int v = 0; v < 4; v++)
            _mm256_storeu_ps(out + i + 8 * v, y[v]);
    }
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(out + i, F(_mm256_loadu_ps(a + i)));
    if (i < n) {
        __m256i live = _mm256_cmpgt_epi32(
            splat(static_cast<int32_t>(n - i)),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        _mm256_maskstore_ps(out + i, live,
                            F(_mm256_maskload_ps(a + i, live)));
    }
}

} // namespace avx2

bool
useAvx2()
{
    return activeBackend() == Backend::Avx2;
}

#endif // NSBENCH_HAVE_AVX2_KERNELS

} // namespace

void
conv2dPlanes(const float *in, const float *weight, const float *bias,
             float *out, int64_t planes, const ConvGeometry &g)
{
#if NSBENCH_HAVE_AVX2_KERNELS
    if (useAvx2())
        return avx2::conv2dPlanes(in, weight, bias, out, planes, g);
#endif
    scalar::conv2dPlanes(in, weight, bias, out, planes, g);
}

void
circularConvRows(const double *a, const double *bb, float *out,
                 int64_t i0, int64_t i1, int64_t d)
{
#if NSBENCH_HAVE_AVX2_KERNELS
    if (useAvx2())
        return avx2::circularRows<-1>(a, bb, out, i0, i1, d);
#endif
    scalar::circularRows<-1>(a, bb, out, i0, i1, d);
}

void
circularCorrRows(const double *a, const double *bb, float *out,
                 int64_t i0, int64_t i1, int64_t d)
{
#if NSBENCH_HAVE_AVX2_KERNELS
    if (useAvx2())
        return avx2::circularRows<1>(a, bb, out, i0, i1, d);
#endif
    scalar::circularRows<1>(a, bb, out, i0, i1, d);
}

void
fftButterflies(std::complex<double> *values,
               const std::complex<double> *twiddles, int64_t n)
{
#if NSBENCH_HAVE_AVX2_KERNELS
    if (useAvx2())
        return avx2::fftButterflies(values, twiddles, n);
#endif
    scalar::fftButterflies(values, twiddles, n);
}

void
complexMulInPlace(std::complex<double> *a, const std::complex<double> *b,
                  int64_t n)
{
#if NSBENCH_HAVE_AVX2_KERNELS
    if (useAvx2())
        return avx2::complexMulInPlace(a, b, n);
#endif
    scalar::complexMulInPlace(a, b, 0, n);
}

void
tanh(const float *a, float *out, int64_t n)
{
#if NSBENCH_HAVE_AVX2_KERNELS
    if (useAvx2())
        return avx2::mapLanes<avx2::tanh8>(a, out, n);
#endif
    scalar::tanh(a, out, n);
}

void
exp(const float *a, float *out, int64_t n)
{
#if NSBENCH_HAVE_AVX2_KERNELS
    if (useAvx2())
        return avx2::mapLanes<avx2::exp8>(a, out, n);
#endif
    scalar::exp(a, out, n);
}

void
sigmoid(const float *a, float *out, int64_t n)
{
#if NSBENCH_HAVE_AVX2_KERNELS
    if (useAvx2())
        return avx2::mapLanes<avx2::sigmoid8>(a, out, n);
#endif
    scalar::sigmoid(a, out, n);
}

} // namespace nsbench::util::simd
