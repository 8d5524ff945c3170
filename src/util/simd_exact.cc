/**
 * @file
 * The order-preserving kernels of util::simd (declared in simd.hh).
 *
 * Each kernel has a scalar twin and an AVX2 version that give every
 * output the same operations in the same order, so the two backends
 * return the same bits. The AVX2 versions gain by putting independent
 * outputs in different lanes, never by splitting one output's sum.
 *
 * This file is compiled with -ffp-contract=off (src/util/CMakeLists.txt).
 * With contraction on, GCC fuses _mm256_add_ps(acc, _mm256_mul_ps(x,
 * w)) inside a target("fma") function into a vfmadd, and a scalar
 * border pixel inlined there into a scalar FMA; either rounds once
 * where the scalar twin rounds twice.
 */

#include <algorithm>

#include "util/simd.hh"
#include "util/simd_target.hh"

namespace nsbench::util::simd
{

namespace
{

namespace scalar
{

/**
 * Output (oy, ox) of a convolution plane: the bias, then each tap that
 * lands inside the input, in (channel, ky, kx) order. Always inlined,
 * so the AVX2 kernel's border pixels are VEX-encoded too: a call into
 * legacy-SSE code with dirty upper YMM halves stalls on every
 * instruction on many x86 cores.
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

/**
 * Circular convolution (Step = -1, operand bb[d + i - j]) or
 * correlation (Step = +1, operand bb[i + j]) outputs [i0, i1). Always
 * inlined, as convPixel, for the AVX2 kernel's tail.
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

} // namespace scalar

#if NSBENCH_HAVE_AVX2_KERNELS

namespace avx2
{

/**
 * Stride-1 output columns [ox, ox + 8N) of one row, every kx tap of
 * which lies inside the input row: lane l of vector n is output
 * ox + 8n + l, and each lane adds its taps in the scalar order.
 */
template <int N>
NSBENCH_TGT inline void
convColumns(const float *in, const float *weight, float bias,
            float *orow, const ConvGeometry &g, int64_t iy0,
            int64_t ky0, int64_t ky1, int64_t ox)
{
    __m256 acc[N];
#pragma GCC unroll 4
    for (int n = 0; n < N; n++)
        acc[n] = _mm256_set1_ps(bias);
    int64_t ix0 = ox - g.padding;
    for (int64_t ic = 0; ic < g.channels; ic++) {
        for (int64_t ky = ky0; ky < ky1; ky++) {
            const float *irow =
                in + (ic * g.height + iy0 + ky) * g.width + ix0;
            const float *wrow =
                weight + (ic * g.kernelH + ky) * g.kernelW;
            for (int64_t kx = 0; kx < g.kernelW; kx++) {
                __m256 wv = _mm256_set1_ps(wrow[kx]);
#pragma GCC unroll 4
                for (int n = 0; n < N; n++)
                    acc[n] = _mm256_add_ps(
                        acc[n],
                        _mm256_mul_ps(
                            _mm256_loadu_ps(irow + kx + 8 * n), wv));
            }
        }
    }
#pragma GCC unroll 4
    for (int n = 0; n < N; n++)
        _mm256_storeu_ps(orow + ox + 8 * n, acc[n]);
}

NSBENCH_TGT void
conv2dPlane(const float *in, const float *weight, float bias,
            float *out, const ConvGeometry &g)
{
    // Interior columns [x0, x1): all kx taps inside the input row.
    int64_t x0 = std::min(g.padding, g.outW);
    int64_t x1 = std::max(
        x0, std::min(g.outW, g.width + g.padding - g.kernelW + 1));
    if (g.stride != 1 || x1 - x0 < 8) {
        scalar::conv2dPlane(in, weight, bias, out, g);
        return;
    }
    for (int64_t oy = 0; oy < g.outH; oy++) {
        float *orow = out + oy * g.outW;
        int64_t iy0 = oy - g.padding;
        int64_t ky0 = std::max<int64_t>(0, -iy0);
        int64_t ky1 = std::min(g.kernelH, g.height - iy0);
        for (int64_t ox = 0; ox < x0; ox++)
            orow[ox] = scalar::convPixel(in, weight, bias, g, oy, ox);
        int64_t ox = x0;
        for (; ox + 32 <= x1; ox += 32)
            convColumns<4>(in, weight, bias, orow, g, iy0, ky0, ky1,
                           ox);
        switch ((x1 - ox) / 8) {
        case 3:
            convColumns<3>(in, weight, bias, orow, g, iy0, ky0, ky1,
                           ox);
            ox += 24;
            break;
        case 2:
            convColumns<2>(in, weight, bias, orow, g, iy0, ky0, ky1,
                           ox);
            ox += 16;
            break;
        case 1:
            convColumns<1>(in, weight, bias, orow, g, iy0, ky0, ky1,
                           ox);
            ox += 8;
            break;
        default:
            break;
        }
        // The last partial vector overlaps the one before it and
        // recomputes those columns' identical values.
        if (ox < x1)
            convColumns<1>(in, weight, bias, orow, g, iy0, ky0, ky1,
                           x1 - 8);
        for (ox = x1; ox < g.outW; ox++)
            orow[ox] = scalar::convPixel(in, weight, bias, g, oy, ox);
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

} // namespace avx2

bool
useAvx2()
{
    return activeBackend() == Backend::Avx2;
}

#endif // NSBENCH_HAVE_AVX2_KERNELS

} // namespace

void
conv2dPlane(const float *in, const float *weight, float bias,
            float *out, const ConvGeometry &g)
{
#if NSBENCH_HAVE_AVX2_KERNELS
    if (useAvx2())
        return avx2::conv2dPlane(in, weight, bias, out, g);
#endif
    scalar::conv2dPlane(in, weight, bias, out, g);
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

} // namespace nsbench::util::simd
