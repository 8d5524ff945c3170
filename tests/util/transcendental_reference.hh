/**
 * @file
 * What the util::simd transcendental twins are checked against.
 *
 * simd::tanh, simd::exp and simd::sigmoid reproduce glibc 2.36's
 * tanhf and expf (the FMA variant it selects on x86-64). This header
 * pairs each twin with its tensor op and the libm expression it must
 * equal, and says whether this host's libm is that reference: other
 * glibc versions (and other libms) may round some inputs differently,
 * and then only the twins are compared with each other.
 */

#ifndef NSBENCH_TESTS_UTIL_TRANSCENDENTAL_REFERENCE_HH
#define NSBENCH_TESTS_UTIL_TRANSCENDENTAL_REFERENCE_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "tensor/ops.hh"
#include "util/simd.hh"

namespace nsbench::tests
{

/** One twin, the tensor op over it, and its libm expression. */
struct Transcendental
{
    const char *name;
    void (*kernel)(const float *, float *, int64_t);
    tensor::Tensor (*op)(const tensor::Tensor &);
    float (*libm)(float);
};

inline const std::array<Transcendental, 3> &
transcendentals()
{
    static const std::array<Transcendental, 3> all = {{
        {"tanh", util::simd::tanh, tensor::tanhOp,
         [](float x) { return std::tanh(x); }},
        {"exp", util::simd::exp, tensor::expOp,
         [](float x) { return std::exp(x); }},
        {"sigmoid", util::simd::sigmoid, tensor::sigmoid,
         [](float x) { return 1.0f / (1.0f + std::exp(-x)); }},
    }};
    return all;
}

/**
 * Why this host's libm is not the one the twins reproduce, or "" when
 * it is: glibc 2.36 on an x86-64 CPU with FMA and AVX2, where glibc
 * picks __expf_fma (without them its expf differs on 2 inputs).
 */
inline std::string
libmNotReference()
{
#if defined(__GLIBC__) && defined(__x86_64__)
    std::string version = gnu_get_libc_version();
    if (version != "2.36")
        return "host libm is glibc " + version + ", not 2.36";
    if (!__builtin_cpu_supports("fma") || !__builtin_cpu_supports("avx2"))
        return "host CPU lacks FMA or AVX2, so glibc 2.36 does not "
               "select __expf_fma";
    return "";
#else
    return "host libm is not x86-64 glibc";
#endif
}

} // namespace nsbench::tests

#endif // NSBENCH_TESTS_UTIL_TRANSCENDENTAL_REFERENCE_HH
