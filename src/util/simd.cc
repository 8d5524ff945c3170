#include "util/simd.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>

#include "util/logging.hh"
#include "util/simd_target.hh"

namespace nsbench::util::simd
{

// ---------------------------------------------------------------------
// Backend resolution and dispatch.
// ---------------------------------------------------------------------

namespace
{

/** -1 = unresolved; else a Backend value. Resolution is idempotent. */
std::atomic<int> gBackend{-1};

bool
cpuHasAvx2()
{
#if NSBENCH_HAVE_AVX2_KERNELS
    return __builtin_cpu_supports("avx2") &&
           __builtin_cpu_supports("fma") &&
           __builtin_cpu_supports("popcnt");
#else
    return false;
#endif
}

Backend
resolveDefault()
{
    const char *env = std::getenv("NSBENCH_SIMD");
    if (env != nullptr && *env != '\0') {
        std::string v(env);
        for (char &c : v)
            c = static_cast<char>(std::tolower(
                static_cast<unsigned char>(c)));
        if (v == "off" || v == "0" || v == "scalar" || v == "false")
            return Backend::Scalar;
        if (v == "on" || v == "1" || v == "avx2" || v == "true") {
            if (cpuHasAvx2())
                return Backend::Avx2;
            warn("NSBENCH_SIMD=" + v +
                 " requested but this build/CPU has no AVX2 "
                 "kernels; using the scalar backend");
            return Backend::Scalar;
        }
        warn("unrecognized NSBENCH_SIMD value '" + v +
             "' (want on/off); auto-detecting");
    }
    return cpuHasAvx2() ? Backend::Avx2 : Backend::Scalar;
}

inline bool
useAvx2()
{
    int b = gBackend.load(std::memory_order_relaxed);
    if (b < 0) {
        // Benign race: resolveDefault() is deterministic, so
        // concurrent first calls store the same value.
        b = static_cast<int>(resolveDefault());
        gBackend.store(b, std::memory_order_relaxed);
    }
    return b == static_cast<int>(Backend::Avx2);
}

} // namespace

bool
avx2Supported()
{
    return cpuHasAvx2();
}

Backend
activeBackend()
{
    return useAvx2() ? Backend::Avx2 : Backend::Scalar;
}

void
setBackend(Backend backend)
{
    panicIf(backend == Backend::Avx2 && !cpuHasAvx2(),
            "simd::setBackend: AVX2 backend unavailable on this "
            "build/CPU");
    gBackend.store(static_cast<int>(backend),
                   std::memory_order_relaxed);
}

void
resetBackend()
{
    gBackend.store(-1, std::memory_order_relaxed);
}

const char *
backendName(Backend backend)
{
    return backend == Backend::Avx2 ? "avx2" : "scalar";
}

const char *
activeBackendName()
{
    return backendName(activeBackend());
}

// ---------------------------------------------------------------------
// Scalar reference kernels. These replicate the historical hand-written
// loops exactly (same operation order, same accumulator widths), so a
// scalar-backend build is bit-identical to the pre-SIMD tree.
// ---------------------------------------------------------------------

namespace scalar
{

void
add(const float *a, const float *b, float *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = a[i] + b[i];
}

void
sub(const float *a, const float *b, float *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = a[i] - b[i];
}

void
mul(const float *a, const float *b, float *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = a[i] * b[i];
}

void
div(const float *a, const float *b, float *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = a[i] / b[i];
}

void
addScalar(const float *a, float s, float *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = a[i] + s;
}

void
mulScalar(const float *a, float s, float *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = a[i] * s;
}

void
relu(const float *a, float *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

void
negate(const float *a, float *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = -a[i];
}

void
clampRange(const float *a, float lo, float hi, float *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = std::clamp(a[i], lo, hi);
}

void
signBipolar(const float *a, float *out, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = a[i] >= 0.0f ? 1.0f : -1.0f;
}

void
accumulate(float *acc, const float *v, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        acc[i] += v[i];
}

void
axpy(float *acc, const float *v, float s, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        acc[i] += s * v[i];
}

double
sumChunk(const float *a, int64_t n)
{
    double s = 0.0;
    for (int64_t i = 0; i < n; i++)
        s += a[i];
    return s;
}

int64_t
argmaxChunk(const float *a, int64_t n)
{
    int64_t best = 0;
    for (int64_t i = 1; i < n; i++) {
        if (a[i] > a[best])
            best = i;
    }
    return best;
}

double
dotChunk(const float *a, const float *b, int64_t n)
{
    double s = 0.0;
    for (int64_t i = 0; i < n; i++)
        s += static_cast<double>(a[i]) * b[i];
    return s;
}

void
cosineChunk(const float *a, const float *b, int64_t n,
            double *dot_out, double *norm_a_out, double *norm_b_out)
{
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (int64_t i = 0; i < n; i++) {
        dot += static_cast<double>(a[i]) * b[i];
        na += static_cast<double>(a[i]) * a[i];
        nb += static_cast<double>(b[i]) * b[i];
    }
    *dot_out += dot;
    *norm_a_out += na;
    *norm_b_out += nb;
}

int64_t
signMatchChunk(const float *a, const float *b, int64_t n)
{
    int64_t match = 0;
    for (int64_t i = 0; i < n; i++) {
        if ((a[i] >= 0.0f) == (b[i] >= 0.0f))
            match++;
    }
    return match;
}

void
matmulRows(const float *a, const float *b, float *c, int64_t i0,
           int64_t i1, int64_t k, int64_t n)
{
    for (int64_t i = i0; i < i1; i++) {
        float *crow = c + i * n;
        std::fill(crow, crow + n, 0.0f);
        // i-k-j order keeps the inner loop streaming over B and C.
        for (int64_t kk = 0; kk < k; kk++) {
            float aik = a[i * k + kk];
            const float *brow = b + kk * n;
            for (int64_t j = 0; j < n; j++)
                crow[j] += aik * brow[j];
        }
    }
}

void
linearRows(const float *x, const float *w, const float *bias, float *y,
           int64_t i0, int64_t i1, int64_t k, int64_t o)
{
    for (int64_t i = i0; i < i1; i++) {
        const float *xrow = x + i * k;
        float *yrow = y + i * o;
        for (int64_t j = 0; j < o; j++) {
            const float *wrow = w + j * k;
            float acc = bias != nullptr ? bias[j] : 0.0f;
            for (int64_t kk = 0; kk < k; kk++)
                acc += xrow[kk] * wrow[kk];
            yrow[j] = acc;
        }
    }
}

void
xorWords(const uint64_t *a, const uint64_t *b, uint64_t *out,
         int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = a[i] ^ b[i];
}

int64_t
popcountXorWords(const uint64_t *a, const uint64_t *b, int64_t n)
{
    int64_t count = 0;
    for (int64_t i = 0; i < n; i++)
        count += std::popcount(a[i] ^ b[i]);
    return count;
}

} // namespace scalar

// ---------------------------------------------------------------------
// AVX2 + FMA + POPCNT kernels.
// ---------------------------------------------------------------------

#if NSBENCH_HAVE_AVX2_KERNELS

namespace avx2
{

/** Horizontal sum of 8 float lanes. */
NSBENCH_TGT inline float
hsum256(__m256 v)
{
    __m128 lo = _mm256_castps256_ps128(v);
    __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x1));
    return _mm_cvtss_f32(s);
}

/** Horizontal sum of 4 double lanes. */
NSBENCH_TGT inline double
hsum256d(__m256d v)
{
    __m128d lo = _mm256_castpd256_pd128(v);
    __m128d hi = _mm256_extractf128_pd(v, 1);
    __m128d s = _mm_add_pd(lo, hi);
    s = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
    return _mm_cvtsd_f64(s);
}

NSBENCH_TGT void
add(const float *a, const float *b, float *out, int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(out + i,
                         _mm256_add_ps(_mm256_loadu_ps(a + i),
                                       _mm256_loadu_ps(b + i)));
    for (; i < n; i++)
        out[i] = a[i] + b[i];
}

NSBENCH_TGT void
sub(const float *a, const float *b, float *out, int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(out + i,
                         _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                       _mm256_loadu_ps(b + i)));
    for (; i < n; i++)
        out[i] = a[i] - b[i];
}

NSBENCH_TGT void
mul(const float *a, const float *b, float *out, int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(out + i,
                         _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                       _mm256_loadu_ps(b + i)));
    for (; i < n; i++)
        out[i] = a[i] * b[i];
}

NSBENCH_TGT void
div(const float *a, const float *b, float *out, int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(out + i,
                         _mm256_div_ps(_mm256_loadu_ps(a + i),
                                       _mm256_loadu_ps(b + i)));
    for (; i < n; i++)
        out[i] = a[i] / b[i];
}

NSBENCH_TGT void
addScalar(const float *a, float s, float *out, int64_t n)
{
    __m256 vs = _mm256_set1_ps(s);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(
            out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), vs));
    for (; i < n; i++)
        out[i] = a[i] + s;
}

NSBENCH_TGT void
mulScalar(const float *a, float s, float *out, int64_t n)
{
    __m256 vs = _mm256_set1_ps(s);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(
            out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
    for (; i < n; i++)
        out[i] = a[i] * s;
}

NSBENCH_TGT void
relu(const float *a, float *out, int64_t n)
{
    __m256 zero = _mm256_setzero_ps();
    int64_t i = 0;
    // cmp+and instead of maxps so relu(-0.0f) == +0.0f exactly as the
    // scalar `x > 0 ? x : 0` writes it.
    for (; i + 8 <= n; i += 8) {
        __m256 v = _mm256_loadu_ps(a + i);
        __m256 mask = _mm256_cmp_ps(v, zero, _CMP_GT_OQ);
        _mm256_storeu_ps(out + i, _mm256_and_ps(v, mask));
    }
    for (; i < n; i++)
        out[i] = a[i] > 0.0f ? a[i] : 0.0f;
}

NSBENCH_TGT void
negate(const float *a, float *out, int64_t n)
{
    __m256 sign = _mm256_set1_ps(-0.0f);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(
            out + i, _mm256_xor_ps(_mm256_loadu_ps(a + i), sign));
    for (; i < n; i++)
        out[i] = -a[i];
}

NSBENCH_TGT void
clampRange(const float *a, float lo, float hi, float *out, int64_t n)
{
    __m256 vlo = _mm256_set1_ps(lo);
    __m256 vhi = _mm256_set1_ps(hi);
    int64_t i = 0;
    // minps/maxps return their second operand on NaN and on a +/-0
    // tie, so v goes second in the inner max and hi first in the
    // outer min: exactly std::clamp's `v < lo ? lo : hi < v ? hi : v`.
    for (; i + 8 <= n; i += 8) {
        __m256 v = _mm256_loadu_ps(a + i);
        _mm256_storeu_ps(
            out + i,
            _mm256_min_ps(vhi, _mm256_max_ps(vlo, v)));
    }
    for (; i < n; i++)
        out[i] = std::clamp(a[i], lo, hi);
}

NSBENCH_TGT void
signBipolar(const float *a, float *out, int64_t n)
{
    __m256 zero = _mm256_setzero_ps();
    __m256 pos = _mm256_set1_ps(1.0f);
    __m256 neg = _mm256_set1_ps(-1.0f);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256 mask =
            _mm256_cmp_ps(_mm256_loadu_ps(a + i), zero, _CMP_GE_OQ);
        _mm256_storeu_ps(out + i, _mm256_blendv_ps(neg, pos, mask));
    }
    for (; i < n; i++)
        out[i] = a[i] >= 0.0f ? 1.0f : -1.0f;
}

NSBENCH_TGT void
accumulate(float *acc, const float *v, int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(acc + i,
                         _mm256_add_ps(_mm256_loadu_ps(acc + i),
                                       _mm256_loadu_ps(v + i)));
    for (; i < n; i++)
        acc[i] += v[i];
}

NSBENCH_TGT void
axpy(float *acc, const float *v, float s, int64_t n)
{
    __m256 vs = _mm256_set1_ps(s);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(acc + i,
                         _mm256_fmadd_ps(vs, _mm256_loadu_ps(v + i),
                                         _mm256_loadu_ps(acc + i)));
    for (; i < n; i++)
        acc[i] += s * v[i];
}

NSBENCH_TGT double
sumChunk(const float *a, int64_t n)
{
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256 v = _mm256_loadu_ps(a + i);
        acc0 = _mm256_add_pd(
            acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
        acc1 = _mm256_add_pd(
            acc1, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
    }
    double s = hsum256d(_mm256_add_pd(acc0, acc1));
    for (; i < n; i++)
        s += a[i];
    return s;
}

/** Maximum of a[0..n), n >= 1: argmaxChunk's first pass. */
NSBENCH_TGT inline float
maxChunk(const float *a, int64_t n)
{
    float m = a[0];
    int64_t i = 0;
    if (n >= 8) {
        __m256 vm = _mm256_loadu_ps(a);
        for (i = 8; i + 8 <= n; i += 8)
            vm = _mm256_max_ps(vm, _mm256_loadu_ps(a + i));
        __m128 lo = _mm256_castps256_ps128(vm);
        __m128 hi = _mm256_extractf128_ps(vm, 1);
        __m128 s = _mm_max_ps(lo, hi);
        s = _mm_max_ps(s, _mm_movehl_ps(s, s));
        s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 0x1));
        m = _mm_cvtss_f32(s);
    }
    for (; i < n; i++)
        m = std::max(m, a[i]);
    return m;
}

NSBENCH_TGT int64_t
argmaxChunk(const float *a, int64_t n)
{
    // Two passes: find the maximum value, then the first index holding
    // it — the same index the serial first-strict-max scan returns.
    float m = maxChunk(a, n);
    __m256 vm = _mm256_set1_ps(m);
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256 eq =
            _mm256_cmp_ps(_mm256_loadu_ps(a + i), vm, _CMP_EQ_OQ);
        int mask = _mm256_movemask_ps(eq);
        if (mask != 0)
            return i + std::countr_zero(
                           static_cast<unsigned>(mask));
    }
    for (; i < n; i++) {
        if (a[i] == m)
            return i;
    }
    return 0;
}

NSBENCH_TGT double
dotChunk(const float *a, const float *b, int64_t n)
{
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256 va = _mm256_loadu_ps(a + i);
        __m256 vb = _mm256_loadu_ps(b + i);
        acc0 = _mm256_fmadd_pd(
            _mm256_cvtps_pd(_mm256_castps256_ps128(va)),
            _mm256_cvtps_pd(_mm256_castps256_ps128(vb)), acc0);
        acc1 = _mm256_fmadd_pd(
            _mm256_cvtps_pd(_mm256_extractf128_ps(va, 1)),
            _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1)), acc1);
    }
    double s = hsum256d(_mm256_add_pd(acc0, acc1));
    for (; i < n; i++)
        s += static_cast<double>(a[i]) * b[i];
    return s;
}

NSBENCH_TGT void
cosineChunk(const float *a, const float *b, int64_t n,
            double *dot_out, double *norm_a_out, double *norm_b_out)
{
    __m256d dacc = _mm256_setzero_pd();
    __m256d aacc = _mm256_setzero_pd();
    __m256d bacc = _mm256_setzero_pd();
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256d va = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
        __m256d vb = _mm256_cvtps_pd(_mm_loadu_ps(b + i));
        dacc = _mm256_fmadd_pd(va, vb, dacc);
        aacc = _mm256_fmadd_pd(va, va, aacc);
        bacc = _mm256_fmadd_pd(vb, vb, bacc);
    }
    double dot = hsum256d(dacc);
    double na = hsum256d(aacc);
    double nb = hsum256d(bacc);
    for (; i < n; i++) {
        dot += static_cast<double>(a[i]) * b[i];
        na += static_cast<double>(a[i]) * a[i];
        nb += static_cast<double>(b[i]) * b[i];
    }
    *dot_out += dot;
    *norm_a_out += na;
    *norm_b_out += nb;
}

NSBENCH_TGT int64_t
signMatchChunk(const float *a, const float *b, int64_t n)
{
    __m256 zero = _mm256_setzero_ps();
    int64_t match = 0;
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        // Compare-based sign test so -0.0f counts as non-negative,
        // exactly like the scalar (x >= 0.0f) predicate.
        int ma = _mm256_movemask_ps(_mm256_cmp_ps(
            _mm256_loadu_ps(a + i), zero, _CMP_GE_OQ));
        int mb = _mm256_movemask_ps(_mm256_cmp_ps(
            _mm256_loadu_ps(b + i), zero, _CMP_GE_OQ));
        match += 8 - __builtin_popcount(
                         static_cast<unsigned>(ma ^ mb));
    }
    for (; i < n; i++) {
        if ((a[i] >= 0.0f) == (b[i] >= 0.0f))
            match++;
    }
    return match;
}

/**
 * One output row of C = A * B, register-tiled 16 columns wide: the
 * 2x8-lane accumulators live in registers across the whole k loop, so
 * B streams once per column block and C is written exactly once.
 */
NSBENCH_TGT void
matmulRow1(const float *arow, const float *b, float *crow, int64_t k,
           int64_t n)
{
    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
        __m256 acc0 = _mm256_setzero_ps();
        __m256 acc1 = _mm256_setzero_ps();
        for (int64_t kk = 0; kk < k; kk++) {
            __m256 av = _mm256_set1_ps(arow[kk]);
            const float *brow = b + kk * n + j;
            acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow), acc0);
            acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(brow + 8),
                                   acc1);
        }
        _mm256_storeu_ps(crow + j, acc0);
        _mm256_storeu_ps(crow + j + 8, acc1);
    }
    for (; j + 8 <= n; j += 8) {
        __m256 acc = _mm256_setzero_ps();
        for (int64_t kk = 0; kk < k; kk++)
            acc = _mm256_fmadd_ps(_mm256_set1_ps(arow[kk]),
                                  _mm256_loadu_ps(b + kk * n + j),
                                  acc);
        _mm256_storeu_ps(crow + j, acc);
    }
    for (; j < n; j++) {
        float acc = 0.0f;
        for (int64_t kk = 0; kk < k; kk++)
            acc += arow[kk] * b[kk * n + j];
        crow[j] = acc;
    }
}

/**
 * Four output rows at once: 4x16 register tile (8 accumulators), so
 * every B load feeds four FMA pairs. Each row's value is identical to
 * the one matmulRow1 computes, so the 4-row grouping never changes
 * results — only speed.
 */
NSBENCH_TGT void
matmulRow4(const float *a, const float *b, float *c, int64_t i,
           int64_t k, int64_t n)
{
    const float *a0 = a + (i + 0) * k;
    const float *a1 = a + (i + 1) * k;
    const float *a2 = a + (i + 2) * k;
    const float *a3 = a + (i + 3) * k;
    float *c0 = c + (i + 0) * n;
    float *c1 = c + (i + 1) * n;
    float *c2 = c + (i + 2) * n;
    float *c3 = c + (i + 3) * n;

    int64_t j = 0;
    for (; j + 16 <= n; j += 16) {
        __m256 r00 = _mm256_setzero_ps(), r01 = _mm256_setzero_ps();
        __m256 r10 = _mm256_setzero_ps(), r11 = _mm256_setzero_ps();
        __m256 r20 = _mm256_setzero_ps(), r21 = _mm256_setzero_ps();
        __m256 r30 = _mm256_setzero_ps(), r31 = _mm256_setzero_ps();
        for (int64_t kk = 0; kk < k; kk++) {
            const float *brow = b + kk * n + j;
            __m256 b0 = _mm256_loadu_ps(brow);
            __m256 b1 = _mm256_loadu_ps(brow + 8);
            __m256 av;
            av = _mm256_set1_ps(a0[kk]);
            r00 = _mm256_fmadd_ps(av, b0, r00);
            r01 = _mm256_fmadd_ps(av, b1, r01);
            av = _mm256_set1_ps(a1[kk]);
            r10 = _mm256_fmadd_ps(av, b0, r10);
            r11 = _mm256_fmadd_ps(av, b1, r11);
            av = _mm256_set1_ps(a2[kk]);
            r20 = _mm256_fmadd_ps(av, b0, r20);
            r21 = _mm256_fmadd_ps(av, b1, r21);
            av = _mm256_set1_ps(a3[kk]);
            r30 = _mm256_fmadd_ps(av, b0, r30);
            r31 = _mm256_fmadd_ps(av, b1, r31);
        }
        _mm256_storeu_ps(c0 + j, r00);
        _mm256_storeu_ps(c0 + j + 8, r01);
        _mm256_storeu_ps(c1 + j, r10);
        _mm256_storeu_ps(c1 + j + 8, r11);
        _mm256_storeu_ps(c2 + j, r20);
        _mm256_storeu_ps(c2 + j + 8, r21);
        _mm256_storeu_ps(c3 + j, r30);
        _mm256_storeu_ps(c3 + j + 8, r31);
    }
    if (j < n) {
        // Column tail: fall back to the single-row kernel's tail by
        // running it per row on the remaining columns.
        for (int r = 0; r < 4; r++) {
            const float *arow = a + (i + r) * k;
            float *crow = c + (i + r) * n;
            for (int64_t jj = j; jj + 8 <= n; jj += 8) {
                __m256 acc = _mm256_setzero_ps();
                for (int64_t kk = 0; kk < k; kk++)
                    acc = _mm256_fmadd_ps(
                        _mm256_set1_ps(arow[kk]),
                        _mm256_loadu_ps(b + kk * n + jj), acc);
                _mm256_storeu_ps(crow + jj, acc);
            }
            int64_t jt = j + ((n - j) / 8) * 8;
            for (; jt < n; jt++) {
                float acc = 0.0f;
                for (int64_t kk = 0; kk < k; kk++)
                    acc += arow[kk] * b[kk * n + jt];
                crow[jt] = acc;
            }
        }
    }
}

NSBENCH_TGT void
matmulRows(const float *a, const float *b, float *c, int64_t i0,
           int64_t i1, int64_t k, int64_t n)
{
    int64_t i = i0;
    for (; i + 4 <= i1; i += 4)
        matmulRow4(a, b, c, i, k, n);
    for (; i < i1; i++)
        matmulRow1(a + i * k, b, c + i * n, k, n);
}

NSBENCH_TGT void
linearRows(const float *x, const float *w, const float *bias, float *y,
           int64_t i0, int64_t i1, int64_t k, int64_t o)
{
    for (int64_t i = i0; i < i1; i++) {
        const float *xrow = x + i * k;
        float *yrow = y + i * o;
        int64_t j = 0;
        // Four output features share each xrow load.
        for (; j + 4 <= o; j += 4) {
            const float *w0 = w + (j + 0) * k;
            const float *w1 = w + (j + 1) * k;
            const float *w2 = w + (j + 2) * k;
            const float *w3 = w + (j + 3) * k;
            __m256 acc0 = _mm256_setzero_ps();
            __m256 acc1 = _mm256_setzero_ps();
            __m256 acc2 = _mm256_setzero_ps();
            __m256 acc3 = _mm256_setzero_ps();
            int64_t kk = 0;
            for (; kk + 8 <= k; kk += 8) {
                __m256 xv = _mm256_loadu_ps(xrow + kk);
                acc0 = _mm256_fmadd_ps(
                    xv, _mm256_loadu_ps(w0 + kk), acc0);
                acc1 = _mm256_fmadd_ps(
                    xv, _mm256_loadu_ps(w1 + kk), acc1);
                acc2 = _mm256_fmadd_ps(
                    xv, _mm256_loadu_ps(w2 + kk), acc2);
                acc3 = _mm256_fmadd_ps(
                    xv, _mm256_loadu_ps(w3 + kk), acc3);
            }
            float s0 = hsum256(acc0);
            float s1 = hsum256(acc1);
            float s2 = hsum256(acc2);
            float s3 = hsum256(acc3);
            for (; kk < k; kk++) {
                float xv = xrow[kk];
                s0 += xv * w0[kk];
                s1 += xv * w1[kk];
                s2 += xv * w2[kk];
                s3 += xv * w3[kk];
            }
            if (bias != nullptr) {
                s0 += bias[j + 0];
                s1 += bias[j + 1];
                s2 += bias[j + 2];
                s3 += bias[j + 3];
            }
            yrow[j + 0] = s0;
            yrow[j + 1] = s1;
            yrow[j + 2] = s2;
            yrow[j + 3] = s3;
        }
        for (; j < o; j++) {
            const float *wrow = w + j * k;
            __m256 acc = _mm256_setzero_ps();
            int64_t kk = 0;
            for (; kk + 8 <= k; kk += 8)
                acc = _mm256_fmadd_ps(_mm256_loadu_ps(xrow + kk),
                                      _mm256_loadu_ps(wrow + kk),
                                      acc);
            float s = hsum256(acc);
            for (; kk < k; kk++)
                s += xrow[kk] * wrow[kk];
            if (bias != nullptr)
                s += bias[j];
            yrow[j] = s;
        }
    }
}

NSBENCH_TGT void
xorWords(const uint64_t *a, const uint64_t *b, uint64_t *out,
         int64_t n)
{
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i),
                            _mm256_xor_si256(va, vb));
    }
    for (; i < n; i++)
        out[i] = a[i] ^ b[i];
}

/** Per-byte popcount via the pshufb nibble table (Mula). */
NSBENCH_TGT inline __m256i
popcount256(__m256i v)
{
    const __m256i lookup = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2,
        1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low_mask = _mm256_set1_epi8(0x0f);
    __m256i lo = _mm256_and_si256(v, low_mask);
    __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
    __m256i counts =
        _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo),
                        _mm256_shuffle_epi8(lookup, hi));
    // Horizontal per-64-bit-lane byte sums.
    return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

NSBENCH_TGT int64_t
popcountXorWords(const uint64_t *a, const uint64_t *b, int64_t n)
{
    __m256i acc = _mm256_setzero_si256();
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i va = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(a + i));
        __m256i vb = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(b + i));
        acc = _mm256_add_epi64(acc,
                               popcount256(_mm256_xor_si256(va, vb)));
    }
    alignas(32) uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), acc);
    int64_t count = static_cast<int64_t>(lanes[0] + lanes[1] +
                                         lanes[2] + lanes[3]);
    for (; i < n; i++)
        count += __builtin_popcountll(a[i] ^ b[i]);
    return count;
}

} // namespace avx2

#endif // NSBENCH_HAVE_AVX2_KERNELS

// ---------------------------------------------------------------------
// Dispatch shims.
// ---------------------------------------------------------------------

#if NSBENCH_HAVE_AVX2_KERNELS
#define NSBENCH_SIMD_DISPATCH(fn, ...)            \
    do {                                          \
        if (useAvx2())                            \
            return avx2::fn(__VA_ARGS__);         \
        return scalar::fn(__VA_ARGS__);           \
    } while (0)
#else
#define NSBENCH_SIMD_DISPATCH(fn, ...) return scalar::fn(__VA_ARGS__)
#endif

void
add(const float *a, const float *b, float *out, int64_t n)
{
    NSBENCH_SIMD_DISPATCH(add, a, b, out, n);
}

void
sub(const float *a, const float *b, float *out, int64_t n)
{
    NSBENCH_SIMD_DISPATCH(sub, a, b, out, n);
}

void
mul(const float *a, const float *b, float *out, int64_t n)
{
    NSBENCH_SIMD_DISPATCH(mul, a, b, out, n);
}

void
div(const float *a, const float *b, float *out, int64_t n)
{
    NSBENCH_SIMD_DISPATCH(div, a, b, out, n);
}

void
addScalar(const float *a, float s, float *out, int64_t n)
{
    NSBENCH_SIMD_DISPATCH(addScalar, a, s, out, n);
}

void
mulScalar(const float *a, float s, float *out, int64_t n)
{
    NSBENCH_SIMD_DISPATCH(mulScalar, a, s, out, n);
}

void
relu(const float *a, float *out, int64_t n)
{
    NSBENCH_SIMD_DISPATCH(relu, a, out, n);
}

void
negate(const float *a, float *out, int64_t n)
{
    NSBENCH_SIMD_DISPATCH(negate, a, out, n);
}

void
clampRange(const float *a, float lo, float hi, float *out, int64_t n)
{
    NSBENCH_SIMD_DISPATCH(clampRange, a, lo, hi, out, n);
}

void
signBipolar(const float *a, float *out, int64_t n)
{
    NSBENCH_SIMD_DISPATCH(signBipolar, a, out, n);
}

void
accumulate(float *acc, const float *v, int64_t n)
{
    NSBENCH_SIMD_DISPATCH(accumulate, acc, v, n);
}

void
axpy(float *acc, const float *v, float s, int64_t n)
{
    NSBENCH_SIMD_DISPATCH(axpy, acc, v, s, n);
}

double
sumChunk(const float *a, int64_t n)
{
    NSBENCH_SIMD_DISPATCH(sumChunk, a, n);
}

int64_t
argmaxChunk(const float *a, int64_t n)
{
    NSBENCH_SIMD_DISPATCH(argmaxChunk, a, n);
}

double
dotChunk(const float *a, const float *b, int64_t n)
{
    NSBENCH_SIMD_DISPATCH(dotChunk, a, b, n);
}

void
cosineChunk(const float *a, const float *b, int64_t n,
            double *dot_out, double *norm_a_out, double *norm_b_out)
{
    NSBENCH_SIMD_DISPATCH(cosineChunk, a, b, n, dot_out, norm_a_out,
                          norm_b_out);
}

int64_t
signMatchChunk(const float *a, const float *b, int64_t n)
{
    NSBENCH_SIMD_DISPATCH(signMatchChunk, a, b, n);
}

void
matmulRows(const float *a, const float *b, float *c, int64_t i0,
           int64_t i1, int64_t k, int64_t n)
{
    NSBENCH_SIMD_DISPATCH(matmulRows, a, b, c, i0, i1, k, n);
}

void
linearRows(const float *x, const float *w, const float *bias, float *y,
           int64_t i0, int64_t i1, int64_t k, int64_t o)
{
    NSBENCH_SIMD_DISPATCH(linearRows, x, w, bias, y, i0, i1, k, o);
}

void
xorWords(const uint64_t *a, const uint64_t *b, uint64_t *out,
         int64_t n)
{
    NSBENCH_SIMD_DISPATCH(xorWords, a, b, out, n);
}

int64_t
popcountXorWords(const uint64_t *a, const uint64_t *b, int64_t n)
{
    NSBENCH_SIMD_DISPATCH(popcountXorWords, a, b, n);
}

} // namespace nsbench::util::simd
