/**
 * @file
 * The element-wise map frame.
 *
 * Every element-wise map over float tensors in tensor/ and vsa/ runs
 * through the one frame here (detail::mapFrame): the allocating ops
 * add through pow, the *InPlace ops, vsa::bind, vsa::unbind and
 * vsa::bundleMajority, and the workloads' fused chains. The frame
 * checks shapes, opens the op's ScopedOp, allocates the output when
 * the caller has none, splits the elements over the ThreadPool by
 * grainFor, walks each chunk in tiles of kFuseTile elements and
 * records the stream model: each input read once, the output written
 * once.
 *
 * The paper's operator breakdown (Fig. 3a) shows elementwise chains —
 * the t-norm algebra in LTN/LNN, VSA thresholding, PMF renormalization
 * — spending most of their time materializing intermediates: a chain
 * like clamp(sub(addScalar(a, k), b), 0, 1) writes and re-reads one
 * full tensor per step. A fusedMap chain runs tile by tile through the
 * util::simd span kernels, with one cache-resident stack scratch tile
 * instead of whole-tensor intermediates, so the chain reads each input
 * once and writes the output once. The fusion's traffic saving shows
 * as fewer ops, not as fudged byte counts.
 *
 * Determinism contract: elementwise kernels are position-independent
 * (element i depends only on the operands' element i), so tiling does
 * not change results — a fused chain composed of the same simd kernel
 * calls in the same order is bit-identical to the unfused chain on
 * both backends. Do NOT fuse with different arithmetic (e.g. an FMA
 * where the unfused chain did mul-then-add): that changes rounding.
 *
 * Aliasing: `out` may be one of the inputs (exact overlap only); the
 * *InPlace ops in tensor/ops.hh pass their destination as both.
 */

#ifndef NSBENCH_TENSOR_FUSED_HH
#define NSBENCH_TENSOR_FUSED_HH

#include <algorithm>
#include <type_traits>

#include "core/profiler.hh"
#include "tensor/tensor.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

namespace nsbench::tensor
{

/**
 * Tile size (elements) for fused chains: 16 KiB of scratch, small
 * enough to live in L1 next to the operand tiles.
 */
inline constexpr int64_t kFuseTile = 4096;

namespace detail
{

/**
 * The frame behind every fusedMap and fusedMapUnary call. `b` is null
 * for a unary map. An empty `out` is allocated inside the op's timed
 * scope. `tile(a, b, out, scratch, len)` runs on consecutive tiles of
 * at most kFuseTile elements of each ThreadPool chunk, with `b` null
 * when unary and `scratch` a kFuseTile-float workspace.
 */
template <typename TileFn>
void
mapFrame(const char *name, Tensor &out, const Tensor &a, const Tensor *b,
         double flops_per_elem, TileFn tile)
{
    const Tensor *given = out.empty() ? nullptr : &out;
    for (const Tensor *t : {b, given}) {
        if (t && t->shape() != a.shape()) {
            util::panic(std::string(name) + ": shape mismatch " +
                        shapeStr(a.shape()) + " vs " +
                        shapeStr(t->shape()));
        }
    }
    core::ScopedOp op(name, core::OpCategory::VectorElementwise);
    // Taken first: data() panics on an empty input, even when the
    // input is `out` itself.
    const float *pa = a.data().data();
    const float *pb = b ? b->data().data() : nullptr;
    // Every element is written below: uninitialized is legal.
    if (out.empty())
        out = Tensor::uninitialized(a.shape());
    float *po = out.data().data();
    int64_t n = a.numel();
    util::parallelFor(
        0, n, util::grainFor(flops_per_elem),
        [&](int64_t lo, int64_t hi) {
            alignas(64) float scratch[kFuseTile];
            for (int64_t t = lo; t < hi; t += kFuseTile) {
                tile(pa + t, pb ? pb + t : nullptr, po + t, scratch,
                     std::min(kFuseTile, hi - t));
            }
        });
    auto elems = static_cast<double>(n);
    op.setFlops(elems * flops_per_elem);
    op.setBytesRead((b ? 2.0 : 1.0) * elems * sizeof(float));
    op.setBytesWritten(elems * sizeof(float));
}

/** Calls `fn` with the scratch tile only when it takes one. */
template <typename Fn, typename... Ptrs>
void
callTile(Fn &fn, float *scratch, int64_t len, Ptrs... ptrs)
{
    if constexpr (std::is_invocable_v<Fn &, Ptrs..., int64_t>)
        fn(ptrs..., len);
    else
        fn(ptrs..., scratch, len);
}

} // namespace detail

/**
 * Applies a binary chain tile by tile:
 * `chunk_fn(a_tile, b_tile, out_tile, scratch, len)`, or
 * `chunk_fn(a_tile, b_tile, out_tile, len)` for a chain that needs no
 * scratch (a plain util::simd span kernel such as simd::add). Recorded
 * as one VectorElementwise op.
 *
 * `out` must have the operands' shape, or be empty to be allocated;
 * it may share storage with either operand (exact overlap only).
 */
template <typename ChunkFn>
void
fusedMap(const char *name, Tensor &out, const Tensor &a,
         const Tensor &b, double flops_per_elem, ChunkFn chunk_fn)
{
    detail::mapFrame(name, out, a, &b, flops_per_elem,
                     [&](const float *pa, const float *pb, float *po,
                         float *scratch, int64_t len) {
                         detail::callTile(chunk_fn, scratch, len, pa,
                                          pb, po);
                     });
}

/**
 * Unary variant: `chunk_fn(a_tile, out_tile, scratch, len)` or
 * `chunk_fn(a_tile, out_tile, len)`.
 */
template <typename ChunkFn>
void
fusedMapUnary(const char *name, Tensor &out, const Tensor &a,
              double flops_per_elem, ChunkFn chunk_fn)
{
    detail::mapFrame(name, out, a, nullptr, flops_per_elem,
                     [&](const float *pa, const float *, float *po,
                         float *scratch, int64_t len) {
                         detail::callTile(chunk_fn, scratch, len, pa,
                                          po);
                     });
}

/** fusedMap into a fresh result. */
template <typename ChunkFn>
Tensor
fusedMap(const char *name, const Tensor &a, const Tensor &b,
         double flops_per_elem, ChunkFn chunk_fn)
{
    Tensor out;
    fusedMap(name, out, a, b, flops_per_elem, chunk_fn);
    return out;
}

/** fusedMapUnary into a fresh result. */
template <typename ChunkFn>
Tensor
fusedMapUnary(const char *name, const Tensor &a, double flops_per_elem,
              ChunkFn chunk_fn)
{
    Tensor out;
    fusedMapUnary(name, out, a, flops_per_elem, chunk_fn);
    return out;
}

} // namespace nsbench::tensor

#endif // NSBENCH_TENSOR_FUSED_HH
