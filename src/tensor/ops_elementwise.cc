#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "tensor/fused.hh"
#include "tensor/ops.hh"
#include "tensor/ops_common.hh"

namespace nsbench::tensor
{

using detail::elemBytes;

namespace simd = nsbench::util::simd;

namespace
{

/** Span form of a per-element function, for maps with no simd kernel. */
template <typename F>
auto
perElement(F f)
{
    return [f](const float *a, float *out, int64_t n) {
        for (int64_t i = 0; i < n; i++)
            out[i] = f(a[i]);
    };
}

} // namespace

Tensor
add(const Tensor &a, const Tensor &b)
{
    return fusedMap("add", a, b, 1.0, simd::add);
}

Tensor
sub(const Tensor &a, const Tensor &b)
{
    return fusedMap("sub", a, b, 1.0, simd::sub);
}

Tensor
mul(const Tensor &a, const Tensor &b)
{
    return fusedMap("mul", a, b, 1.0, simd::mul);
}

Tensor
div(const Tensor &a, const Tensor &b)
{
    return fusedMap("div", a, b, 1.0, simd::div);
}

Tensor
addScalar(const Tensor &a, float s)
{
    return fusedMapUnary("add_scalar", a, 1.0,
                         [s](const float *pa, float *po, int64_t n) {
                             simd::addScalar(pa, s, po, n);
                         });
}

Tensor
mulScalar(const Tensor &a, float s)
{
    return fusedMapUnary("mul_scalar", a, 1.0,
                         [s](const float *pa, float *po, int64_t n) {
                             simd::mulScalar(pa, s, po, n);
                         });
}

Tensor
relu(const Tensor &a)
{
    return fusedMapUnary("relu", a, 1.0, simd::relu);
}

Tensor
sigmoid(const Tensor &a)
{
    return fusedMapUnary("sigmoid", a, 4.0, simd::sigmoid);
}

Tensor
tanhOp(const Tensor &a)
{
    return fusedMapUnary("tanh", a, 4.0, simd::tanh);
}

Tensor
expOp(const Tensor &a)
{
    return fusedMapUnary("exp", a, 2.0, simd::exp);
}

Tensor
neg(const Tensor &a)
{
    return fusedMapUnary("neg", a, 1.0, simd::negate);
}

Tensor
sign(const Tensor &a)
{
    return fusedMapUnary("sign", a, 1.0, perElement([](float x) {
        return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f);
    }));
}

Tensor
clamp(const Tensor &a, float lo, float hi)
{
    return fusedMapUnary("clamp", a, 1.0,
                         [lo, hi](const float *pa, float *po,
                                  int64_t n) {
                             simd::clampRange(pa, lo, hi, po, n);
                         });
}

Tensor
powOp(const Tensor &a, float exponent)
{
    return fusedMapUnary("pow", a, 4.0, perElement([exponent](float x) {
        return std::pow(x, exponent);
    }));
}

float
sumAll(const Tensor &a)
{
    const float *pa = a.data().data();
    return static_cast<float>(detail::reduceAll(
        "sum", core::OpCategory::VectorElementwise, a.numel(), 1, 1.0,
        0.0,
        [pa](int64_t lo, int64_t hi) {
            return simd::sumChunk(pa + lo, hi - lo);
        },
        std::plus<>()));
}

float
meanAll(const Tensor &a)
{
    util::panicIf(a.numel() == 0, "meanAll: empty tensor");
    return sumAll(a) / static_cast<float>(a.numel());
}

int64_t
argmaxAll(const Tensor &a)
{
    util::panicIf(a.numel() == 0, "argmaxAll: empty tensor");
    const float *pa = a.data().data();
    // Per-chunk first-strict-maximum, combined in chunk order with a
    // strict comparison: exactly the serial earliest-argmax rule.
    return detail::reduceAll(
        "argmax", core::OpCategory::VectorElementwise, a.numel(), 1,
        1.0, int64_t{0},
        [pa](int64_t lo, int64_t hi) {
            return lo + simd::argmaxChunk(pa + lo, hi - lo);
        },
        [pa](int64_t best, int64_t b) {
            return pa[b] > pa[best] ? b : best;
        });
}

namespace
{

/**
 * Shared frame for axis reductions: iterates outer x inner blocks
 * where the reduced axis has extent `axis_n` and stride `inner`.
 */
template <typename Fold>
Tensor
reduceAxis(const char *name, const Tensor &a, int64_t axis, float init,
           Fold fold)
{
    auto rank = static_cast<int64_t>(a.dim());
    util::panicIf(axis < 0 || axis >= rank,
                  std::string(name) + ": axis out of range");

    core::ScopedOp op(name, core::OpCategory::VectorElementwise);

    Shape out_shape;
    for (int64_t d = 0; d < rank; d++) {
        if (d != axis)
            out_shape.push_back(a.shape()[static_cast<size_t>(d)]);
    }
    int64_t axis_n = a.shape()[static_cast<size_t>(axis)];
    int64_t inner = 1;
    for (int64_t d = axis + 1; d < rank; d++)
        inner *= a.shape()[static_cast<size_t>(d)];
    int64_t outer = a.numel() / std::max<int64_t>(axis_n * inner, 1);

    // Every output element is stored exactly once below.
    Tensor out = Tensor::uninitialized(out_shape);
    auto src = a.data();
    auto dst = out.data();
    // Each output element folds its own slice in serial order, so
    // splitting over output elements is bit-identical.
    util::parallelFor(
        0, outer * inner,
        util::grainFor(static_cast<double>(axis_n)),
        [&](int64_t lo, int64_t hi) {
            for (int64_t e = lo; e < hi; e++) {
                int64_t o = e / inner;
                int64_t i = e % inner;
                float acc = init;
                for (int64_t k = 0; k < axis_n; k++) {
                    acc = fold(acc,
                               src[static_cast<size_t>(
                                   (o * axis_n + k) * inner + i)]);
                }
                dst[static_cast<size_t>(e)] = acc;
            }
        });

    auto n = static_cast<double>(a.numel());
    op.setFlops(n);
    op.setBytesRead(n * elemBytes);
    op.setBytesWritten(static_cast<double>(out.numel()) * elemBytes);
    return out;
}

} // namespace

Tensor
sumAxis(const Tensor &a, int64_t axis)
{
    return reduceAxis("sum_axis", a, axis, 0.0f,
                      [](float acc, float v) { return acc + v; });
}

Tensor
maxAxis(const Tensor &a, int64_t axis)
{
    return reduceAxis(
        "max_axis", a, axis, -std::numeric_limits<float>::infinity(),
        [](float acc, float v) { return std::max(acc, v); });
}

namespace
{

/** dst[i] = exp(src[i] - mx) over one row; returns mx = max(src). */
float
expMinusMax(std::span<const float> src, std::span<float> dst)
{
    float mx = *std::max_element(src.begin(), src.end());
    for (size_t i = 0; i < src.size(); i++)
        dst[i] = src[i] - mx;
    simd::exp(dst.data(), dst.data(), static_cast<int64_t>(dst.size()));
    return mx;
}

/** Applies a row-wise transform over the last dimension. */
template <typename RowFn>
Tensor
lastDimTransform(const char *name, const Tensor &a, RowFn row_fn,
                 double flops_per_elem)
{
    util::panicIf(a.dim() == 0, std::string(name) + ": rank-0 tensor");
    core::ScopedOp op(name, core::OpCategory::VectorElementwise);
    // Row transforms write every output element of every row.
    Tensor out = Tensor::uninitialized(a.shape());
    int64_t row = a.shape().back();
    int64_t rows = a.numel() / std::max<int64_t>(row, 1);
    auto src = a.data();
    auto dst = out.data();
    // Rows are independent; row-parallel execution is bit-identical.
    util::parallelFor(
        0, rows,
        util::grainFor(static_cast<double>(row) * flops_per_elem),
        [&](int64_t r0, int64_t r1) {
            for (int64_t r = r0; r < r1; r++) {
                row_fn(src.subspan(static_cast<size_t>(r * row),
                                   static_cast<size_t>(row)),
                       dst.subspan(static_cast<size_t>(r * row),
                                   static_cast<size_t>(row)));
            }
        });
    auto n = static_cast<double>(a.numel());
    op.setFlops(n * flops_per_elem);
    op.setBytesRead(n * elemBytes);
    op.setBytesWritten(n * elemBytes);
    return out;
}

} // namespace

Tensor
softmax(const Tensor &a)
{
    return lastDimTransform(
        "softmax", a,
        [](std::span<const float> src, std::span<float> dst) {
            expMinusMax(src, dst);
            float sum = 0.0f;
            for (float v : dst)
                sum += v;
            for (float &v : dst)
                v /= sum;
        },
        5.0);
}

Tensor
logSoftmax(const Tensor &a)
{
    return lastDimTransform(
        "log_softmax", a,
        [](std::span<const float> src, std::span<float> dst) {
            float mx = expMinusMax(src, dst);
            float sum = 0.0f;
            for (float v : dst)
                sum += v;
            float log_sum = std::log(sum) + mx;
            for (size_t i = 0; i < src.size(); i++)
                dst[i] = src[i] - log_sum;
        },
        5.0);
}

Tensor
normalizeSum(const Tensor &a, float eps)
{
    return lastDimTransform(
        "normalize_sum", a,
        [eps](std::span<const float> src, std::span<float> dst) {
            float sum = 0.0f;
            for (float v : src)
                sum += v;
            float scale = 1.0f / (sum + eps);
            for (size_t i = 0; i < src.size(); i++)
                dst[i] = src[i] * scale;
        },
        2.0);
}

Tensor
normalizeL2(const Tensor &a, float eps)
{
    return lastDimTransform(
        "normalize_l2", a,
        [eps](std::span<const float> src, std::span<float> dst) {
            float sum = 0.0f;
            for (float v : src)
                sum += v * v;
            float scale = 1.0f / (std::sqrt(sum) + eps);
            for (size_t i = 0; i < src.size(); i++)
                dst[i] = src[i] * scale;
        },
        3.0);
}

} // namespace nsbench::tensor
