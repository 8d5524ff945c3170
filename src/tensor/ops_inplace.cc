/**
 * @file
 * In-place elementwise ops.
 *
 * These reuse the destination's storage instead of allocating a fresh
 * result, cutting the allocation churn and write-allocate traffic the
 * paper's Fig. 3 attributes to the symbolic stages. Arithmetic is the
 * same simd span kernels as the allocating ops, applied with
 * out == dst (exact aliasing, which the kernel contract permits), so
 * results are bit-identical to the allocating counterparts.
 *
 * Each runs through the one element-wise map frame (fusedMap in
 * tensor/fused.hh) with its destination as both input and output, so
 * profiler attribution matches the allocating ops' stream model
 * (inputs read once, output written once); only the op names differ
 * ("add_inplace", ...) so characterization can tell the paths apart.
 */

#include "tensor/ops.hh"

#include "tensor/fused.hh"
#include "util/simd.hh"

namespace nsbench::tensor
{

namespace simd = nsbench::util::simd;

void
addInPlace(Tensor &dst, const Tensor &src)
{
    fusedMap("add_inplace", dst, dst, src, 1.0, simd::add);
}

void
subInPlace(Tensor &dst, const Tensor &src)
{
    fusedMap("sub_inplace", dst, dst, src, 1.0, simd::sub);
}

void
mulInPlace(Tensor &dst, const Tensor &src)
{
    fusedMap("mul_inplace", dst, dst, src, 1.0, simd::mul);
}

void
addScalarInPlace(Tensor &dst, float s)
{
    fusedMapUnary("add_scalar_inplace", dst, dst, 1.0,
                  [s](const float *pa, float *po, int64_t n) {
                      simd::addScalar(pa, s, po, n);
                  });
}

void
mulScalarInPlace(Tensor &dst, float s)
{
    fusedMapUnary("mul_scalar_inplace", dst, dst, 1.0,
                  [s](const float *pa, float *po, int64_t n) {
                      simd::mulScalar(pa, s, po, n);
                  });
}

void
reluInPlace(Tensor &dst)
{
    fusedMapUnary("relu_inplace", dst, dst, 1.0, simd::relu);
}

void
clampInPlace(Tensor &dst, float lo, float hi)
{
    fusedMapUnary("clamp_inplace", dst, dst, 1.0,
                  [lo, hi](const float *pa, float *po, int64_t n) {
                      simd::clampRange(pa, lo, hi, po, n);
                  });
}

void
subScaledInPlace(Tensor &dst, const Tensor &src, float s)
{
    // Deliberately mulScalar-into-scratch then sub — NOT axpy, whose
    // AVX2 FMA rounds once where mul-then-sub rounds twice; this must
    // stay bit-identical to sub(dst, mulScalar(src, s)).
    fusedMap("sub_scaled_inplace", dst, dst, src, 2.0,
             [s](const float *a, const float *b, float *out,
                 float *scratch, int64_t n) {
                 simd::mulScalar(b, s, scratch, n);
                 simd::sub(a, scratch, out, n);
             });
}

} // namespace nsbench::tensor
