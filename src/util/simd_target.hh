/**
 * @file
 * Build-time switch for the AVX2 kernels, shared by the util::simd
 * sources (private to src/util).
 *
 * The AVX2 kernels are compiled with per-function target attributes so
 * the rest of the library keeps the baseline ISA and the binary still
 * starts on machines without AVX2. NSBENCH_SIMD_DISABLE_AVX2 (set by
 * the -DNSBENCH_SIMD_AVX2=OFF CMake option) removes them entirely.
 */

#ifndef NSBENCH_UTIL_SIMD_TARGET_HH
#define NSBENCH_UTIL_SIMD_TARGET_HH

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(NSBENCH_SIMD_DISABLE_AVX2)
#define NSBENCH_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#define NSBENCH_TGT __attribute__((target("avx2,fma,popcnt")))
#else
#define NSBENCH_HAVE_AVX2_KERNELS 0
#endif

#endif // NSBENCH_UTIL_SIMD_TARGET_HH
