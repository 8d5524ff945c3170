/**
 * @file
 * The vectorized kernel backend.
 *
 * Every hot inner loop in the suite (element-wise maps, chunked
 * reductions, MatMul/Linear row blocks, VSA similarity sweeps and the
 * packed-binary popcount paths) funnels through the span-level kernels
 * declared here. Each kernel has two implementations:
 *
 *  - a portable scalar loop, compiled for the baseline ISA, that is
 *    bit-identical to the historical hand-written loops, and
 *  - an AVX2+FMA+POPCNT version compiled via per-function target
 *    attributes, so the rest of the tree keeps the baseline ISA and
 *    the binary still runs on machines without AVX2.
 *
 * Backend selection is runtime CPUID dispatch, overridable:
 *
 *  - NSBENCH_SIMD=off|0|scalar  forces the scalar path,
 *  - NSBENCH_SIMD=on|1|avx2     asks for AVX2 (falls back to scalar
 *    with a warning when the CPU lacks it),
 *  - setBackend() overrides programmatically (used by the equivalence
 *    tests to compare both paths in one process).
 *
 * Determinism contract: for a fixed backend every kernel is a pure
 * function of its operands — results never depend on thread count,
 * because the ThreadPool's chunk grid is width-independent and these
 * kernels are applied per chunk. Across backends, integer/bit kernels
 * (popcount, XOR, sign tests) are exactly equal; float kernels that
 * reassociate or fuse (reductions, FMA accumulation) agree within
 * 1e-5 relative tolerance, which the equivalence suite enforces.
 *
 * The order-preserving kernels (conv2dPlanes, circularConvRows,
 * circularCorrRows, fftButterflies, complexMulInPlace; simd_exact.cc)
 * are exact across backends as well:
 * the AVX2 version puts independent outputs in different lanes and
 * gives each output the scalar twin's operations in the scalar twin's
 * order, so both return the bits of the historical loops. Their source
 * is compiled with -ffp-contract=off. GCC contracts by default in C++
 * mode, and inside a target("fma") function it would turn a multiply
 * followed by an add into one fused multiply-add that rounds once
 * where the scalar loop rounds twice. A double-precision FMA over two
 * widened floats is one exception: the product is exact in double, so
 * fusing it changes nothing, and the circular kernels use it on
 * purpose. The exp twin's five FMAs are the other: glibc fuses there.
 *
 * The transcendental maps (tanh, exp, sigmoid; simd_exact.cc) are
 * exact across backends and across hosts: both twins repeat glibc
 * 2.36's tanhf (fdlibm) and expf (ARM optimized-routines, FMA at
 * glibc's five points: std::fma in the scalar twin), so they return
 * that libm's bits on every float input whatever the host's libm or
 * CPU. tests/util/exhaustive_transcendental_test.cc checks all 2^32.
 *
 * Profiler attribution (FLOPs, bytes, invocations) is computed from
 * operand shapes by the calling ops, so it is exact and identical for
 * both backends.
 */

#ifndef NSBENCH_UTIL_SIMD_HH
#define NSBENCH_UTIL_SIMD_HH

#include <complex>
#include <cstdint>

namespace nsbench::util::simd
{

/** Kernel implementation selected at runtime. */
enum class Backend
{
    Scalar, ///< Portable baseline-ISA loops.
    Avx2,   ///< AVX2 + FMA + POPCNT target-attribute kernels.
};

/** True when this build carries AVX2 kernels and the CPU has them. */
bool avx2Supported();

/**
 * The backend all kernels dispatch on, resolved once from the
 * NSBENCH_SIMD override else CPUID. Thread-safe.
 */
Backend activeBackend();

/**
 * Overrides the active backend (test hook; also used by --simd).
 * Requesting Avx2 on a machine without it is fatal. Thread-unsafe
 * against concurrent kernels: call outside parallel regions.
 */
void setBackend(Backend backend);

/** Drops any override; the next activeBackend() re-resolves. */
void resetBackend();

/** Human-readable name: "scalar" or "avx2". */
const char *backendName(Backend backend);

/** Shorthand for backendName(activeBackend()). */
const char *activeBackendName();

/// @name Element-wise float maps over [0, n). Out must not partially
/// alias the inputs (out == a or out == b exactly is allowed).
///
/// clampRange returns std::clamp(a[i], lo, hi) bit for bit on both
/// backends, NaN and signed-zero ties included. MINPS and MAXPS
/// return their second operand on NaN and on a +/-0 tie, so the AVX2
/// twin fixes the operand order: minps(hi, maxps(lo, v)).
/// @{
void add(const float *a, const float *b, float *out, int64_t n);
void sub(const float *a, const float *b, float *out, int64_t n);
void mul(const float *a, const float *b, float *out, int64_t n);
void div(const float *a, const float *b, float *out, int64_t n);
void addScalar(const float *a, float s, float *out, int64_t n);
void mulScalar(const float *a, float s, float *out, int64_t n);
void relu(const float *a, float *out, int64_t n);
void negate(const float *a, float *out, int64_t n);
void clampRange(const float *a, float lo, float hi, float *out,
                int64_t n);
/** out[i] = a[i] >= 0 ? +1 : -1 (majority-bundle thresholding). */
void signBipolar(const float *a, float *out, int64_t n);
/** acc[i] += v[i]. */
void accumulate(float *acc, const float *v, int64_t n);
/** acc[i] += s * v[i] (codebook superposition). */
void axpy(float *acc, const float *v, float s, int64_t n);
/// @}

/// @name Chunked reductions. Called once per ThreadPool chunk, so the
/// result for a fixed backend is independent of thread count.
/// @{
/** Double-precision sum of a[0..n). */
double sumChunk(const float *a, int64_t n);
/** Index of the first strict maximum of a[0..n); n must be >= 1. */
int64_t argmaxChunk(const float *a, int64_t n);
/** Double-precision dot product of a[0..n) and b[0..n). */
double dotChunk(const float *a, const float *b, int64_t n);
/** Accumulates dot(a,b), |a|^2 and |b|^2 in one pass. */
void cosineChunk(const float *a, const float *b, int64_t n,
                 double *dot_out, double *norm_a_out,
                 double *norm_b_out);
/** Number of positions where a and b have the same sign (>= 0). */
int64_t signMatchChunk(const float *a, const float *b, int64_t n);
/// @}

/// @name MatMul / Linear row blocks (row-major operands).
/// @{
/**
 * C[i, :] = sum_k A[i, k] * B[k, :] for rows i in [i0, i1), with
 * A of shape [*, k] and B of shape [k, n]. Rows are zeroed first;
 * each output row's value is independent of the block split.
 */
void matmulRows(const float *a, const float *b, float *c, int64_t i0,
                int64_t i1, int64_t k, int64_t n);
/**
 * Y[i, j] = dot(X[i, :], W[j, :]) + bias[j] for rows i in [i0, i1),
 * with X of shape [*, k] and W of shape [o, k]. Pass bias == nullptr
 * to skip the bias term.
 */
void linearRows(const float *x, const float *w, const float *bias,
                float *y, int64_t i0, int64_t i1, int64_t k,
                int64_t o);
/// @}

/// @name Packed binary hypervector kernels (64 bits per word).
/// @{
/** out[i] = a[i] ^ b[i]. */
void xorWords(const uint64_t *a, const uint64_t *b, uint64_t *out,
              int64_t n);
/** popcount(a ^ b) over n words (Hamming distance of packed HVs). */
int64_t popcountXorWords(const uint64_t *a, const uint64_t *b,
                         int64_t n);
/// @}

/// @name Order-preserving kernels: bit-identical across backends.
/// @{
/** Shape of one output plane of a 2-D convolution. */
struct ConvGeometry
{
    int64_t channels; ///< Input channels summed into the plane.
    int64_t height;   ///< Input rows.
    int64_t width;    ///< Input columns.
    int64_t kernelH;  ///< Kernel rows.
    int64_t kernelW;  ///< Kernel columns.
    int64_t stride;   ///< Step between output positions.
    int64_t padding;  ///< Implicit zero border on every side.
    int64_t outH;     ///< Output rows.
    int64_t outW;     ///< Output columns.
};

/**
 * @p planes consecutive output planes of a 2-D convolution. @p in is
 * one image [channels, height, width], @p weight the planes' filters
 * [planes, channels, kernelH, kernelW], @p bias their @p planes biases
 * (nullptr: all 0) and @p out the [planes, outH, outW] outputs. Each
 * output starts at its bias and adds in * weight one float product at
 * a time over (channel, ky, kx) in increasing order, skipping the taps
 * that fall in the padding. The AVX2 version runs stride 1 on blocks
 * of up to kConvPlaneBlock planes that share each input load, 8
 * columns to a vector, borders included: a tap with lanes outside the
 * input row loads and adds only the lanes inside. Stride > 1 stays
 * scalar.
 */
void conv2dPlanes(const float *in, const float *weight, const float *bias,
                  float *out, int64_t planes, const ConvGeometry &g);

/** Planes per block of the AVX2 conv2dPlanes: callers split by it. */
constexpr int64_t kConvPlaneBlock = 4;

/**
 * Circular convolution outputs i in [i0, i1): out[i] is the double
 * sum over j = 0..d-1, in increasing j, of a[j] * bb[i - j + d],
 * rounded to float. @p a holds the d widened elements of the first
 * operand and @p bb the 2d widened elements of [b, b], so bb[i - j +
 * d] is b[(i - j) mod d] without a modulo.
 */
void circularConvRows(const double *a, const double *bb, float *out,
                      int64_t i0, int64_t i1, int64_t d);

/** Circular correlation: as circularConvRows with bb[i + j]. */
void circularCorrRows(const double *a, const double *bb, float *out,
                      int64_t i0, int64_t i1, int64_t d);

/**
 * The butterfly stages of an in-place radix-2 FFT of n = 2^k values,
 * already in bit-reversed order. @p twiddles holds each stage's
 * factors in turn, for half = 1, 2, 4, ..., n / 2: w_0..w_{half-1},
 * n - 1 in all. Every butterfly is the std::complex loop's
 *   v = x[j] * w;  x[i] = u + v;  x[j] = u - v;   (u = x[i])
 * with the product (ac - bd, bc + ad) and, when both of its parts are
 * NaN, the libgcc __muldc3 recovery that std::complex<double>'s
 * product calls there. The AVX2 version runs two butterflies per
 * vector (the first stage across blocks) and redoes a pair through
 * std::complex when a product lane is NaN.
 */
void fftButterflies(std::complex<double> *values,
                    const std::complex<double> *twiddles, int64_t n);

/** a[i] *= b[i] (std::complex<double>'s product, as above). */
void complexMulInPlace(std::complex<double> *a,
                       const std::complex<double> *b, int64_t n);
/// @}

/// @name Float transcendentals: glibc 2.36's bits on every input.
/// Element-wise maps over [0, n) (out == a is allowed) that return,
/// bit for bit on all 2^32 float inputs and NaN payloads included,
/// what glibc 2.36 returns on an x86-64 host with FMA:
/// tanh(a[i]) = tanhf(a[i]), exp(a[i]) = expf(a[i]) and sigmoid(a[i])
/// = 1.0f / (1.0f + expf(-a[i])). The bits come from this repository,
/// not from the host's libm.
/// @{
void tanh(const float *a, float *out, int64_t n);
void exp(const float *a, float *out, int64_t n);
void sigmoid(const float *a, float *out, int64_t n);
/// @}

} // namespace nsbench::util::simd

#endif // NSBENCH_UTIL_SIMD_HH
