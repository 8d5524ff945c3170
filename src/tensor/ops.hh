/**
 * @file
 * Instrumented tensor operations.
 *
 * Every function here times itself and reports (name, taxonomy
 * category, FLOPs, bytes) to the global profiler, mirroring the
 * function-level statistics the paper gathers with the PyTorch
 * Profiler. Byte counts use an idealized stream model: each input
 * element is read once and each output element written once.
 */

#ifndef NSBENCH_TENSOR_OPS_HH
#define NSBENCH_TENSOR_OPS_HH

#include <cstdint>
#include <vector>

#include "tensor/tensor.hh"

namespace nsbench::tensor
{

/// @name Element-wise binary ops (shapes must match exactly).
/// @{
Tensor add(const Tensor &a, const Tensor &b);
Tensor sub(const Tensor &a, const Tensor &b);
Tensor mul(const Tensor &a, const Tensor &b);
Tensor div(const Tensor &a, const Tensor &b);
/// @}

/// @name Scalar ops.
/// @{
Tensor addScalar(const Tensor &a, float s);
Tensor mulScalar(const Tensor &a, float s);
/// @}

/// @name In-place elementwise ops.
///
/// Each mutates @p dst's storage instead of allocating a result, but
/// is otherwise bit-identical to its allocating counterpart (same
/// simd kernels, same order). @p src may be @p dst itself (exact
/// overlap only — the handles must share the whole buffer, never a
/// partial range). NB: the write is visible through every tensor
/// handle sharing @p dst's storage; callers own that aliasing.
/// @{
/** dst += src. */
void addInPlace(Tensor &dst, const Tensor &src);
/** dst -= src. */
void subInPlace(Tensor &dst, const Tensor &src);
/** dst *= src. */
void mulInPlace(Tensor &dst, const Tensor &src);
/** dst += s. */
void addScalarInPlace(Tensor &dst, float s);
/** dst *= s. */
void mulScalarInPlace(Tensor &dst, float s);
/** dst = max(dst, 0). */
void reluInPlace(Tensor &dst);
/** dst = clamp(dst, lo, hi). */
void clampInPlace(Tensor &dst, float lo, float hi);
/**
 * dst -= s * src, computed as mul-then-sub (never FMA) so it is
 * bit-identical to sub(dst, mulScalar(src, s)) — the SGD update step.
 */
void subScaledInPlace(Tensor &dst, const Tensor &src, float s);
/// @}

/// @name Element-wise unary ops.
/// @{
Tensor relu(const Tensor &a);
Tensor sigmoid(const Tensor &a);
Tensor tanhOp(const Tensor &a);
Tensor expOp(const Tensor &a);
Tensor neg(const Tensor &a);
Tensor sign(const Tensor &a);
Tensor clamp(const Tensor &a, float lo, float hi);
/** Element-wise power with a constant exponent (base must be
 *  non-negative for fractional exponents). */
Tensor powOp(const Tensor &a, float exponent);
/// @}

/// @name Full reductions.
/// @{
float sumAll(const Tensor &a);
float meanAll(const Tensor &a);
/** Index of the largest element. */
int64_t argmaxAll(const Tensor &a);
/// @}

/// @name Axis reductions (axis counts from the front, no negatives).
/// @{
Tensor sumAxis(const Tensor &a, int64_t axis);
Tensor maxAxis(const Tensor &a, int64_t axis);
/// @}

/// @name Normalizations over the last dimension.
/// @{
/** Softmax over the last dimension. */
Tensor softmax(const Tensor &a);
/** Log-softmax over the last dimension. */
Tensor logSoftmax(const Tensor &a);
/** Scales each last-dim slice to sum to one (PMF normalization). */
Tensor normalizeSum(const Tensor &a, float eps = 1e-12f);
/** Scales each last-dim slice to unit L2 norm. */
Tensor normalizeL2(const Tensor &a, float eps = 1e-12f);
/// @}

/// @name Matrix multiplication.
/// @{
/** C[M,N] = A[M,K] * B[K,N]. */
Tensor matmul(const Tensor &a, const Tensor &b);
/**
 * Fully-connected layer: Y[N,O] = X[N,K] * W[O,K]^T + bias[O]. Pass an
 * empty bias tensor to skip the bias.
 */
Tensor linear(const Tensor &x, const Tensor &w, const Tensor &bias);
/** Dot product of two rank-1 tensors of equal length. */
float dot(const Tensor &a, const Tensor &b);
/// @}

/// @name Convolution and pooling (NCHW).
/// @{
/**
 * 2-D convolution of input[N,C,H,W] with weight[O,C,kh,kw] and
 * optional bias[O] (pass empty to skip), zero padding, square stride.
 */
Tensor conv2d(const Tensor &input, const Tensor &weight,
              const Tensor &bias, int64_t stride = 1,
              int64_t padding = 0);
/** Max pooling with square kernel/stride. */
Tensor maxPool2d(const Tensor &input, int64_t kernel, int64_t stride);
/** Average pooling with square kernel/stride. */
Tensor avgPool2d(const Tensor &input, int64_t kernel, int64_t stride);
/// @}

/// @name Data transformations.
/// @{
/** Transpose of a rank-2 tensor. */
Tensor transpose2d(const Tensor &a);
/** Generalized axis permutation. @p perm must be a permutation. */
Tensor permute(const Tensor &a, const std::vector<int64_t> &perm);
/** Concatenation along an axis; shapes must agree elsewhere. */
Tensor concat(const std::vector<Tensor> &parts, int64_t axis);
/** Contiguous sub-range along one axis. */
Tensor slice(const Tensor &a, int64_t axis, int64_t start,
             int64_t length);
/** Gathers rows of a rank-2 tensor by index. */
Tensor gatherRows(const Tensor &a, const std::vector<int64_t> &rows);
/** Elements of @p a where @p mask is non-zero, flattened to rank-1. */
Tensor maskedSelect(const Tensor &a, const Tensor &mask);
/** One-hot encodes indices into a [n, classes] tensor. */
Tensor oneHot(const std::vector<int64_t> &indices, int64_t classes);
/// @}

/// @name Data movement.
/// @{
/**
 * Simulated host/device transfer: a copy recorded as data movement
 * under the given label ("h2d"/"d2h"), so the transfer overhead the
 * paper measures between CPU-side symbolic and GPU-side neural stages
 * is visible in the op stream.
 */
Tensor transfer(const Tensor &a, const char *label);
/// @}

} // namespace nsbench::tensor

#endif // NSBENCH_TENSOR_OPS_HH
