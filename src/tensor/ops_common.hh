/**
 * @file
 * Internal helpers shared by the op implementation files. Not part of
 * the public API. The element-wise map frame is public, in
 * tensor/fused.hh, because vsa/ uses it too.
 */

#ifndef NSBENCH_TENSOR_OPS_COMMON_HH
#define NSBENCH_TENSOR_OPS_COMMON_HH

#include <algorithm>
#include <vector>

#include "core/profiler.hh"
#include "tensor/tensor.hh"
#include "util/logging.hh"
#include "util/simd.hh"
#include "util/threadpool.hh"

namespace nsbench::tensor::detail
{

inline constexpr double elemBytes = sizeof(float);

/**
 * The frame behind every full reduction (sum, max, argmax, dot): one
 * ScopedOp over a deterministic chunked reduction of [0, n). The range
 * is cut into fixed chunks of grainFor(flops_per_elem) items,
 * `partial(lo, hi)` reduces each chunk (in parallel), and `combine`
 * folds the partials into `init` in chunk order on the calling thread.
 * Because the chunk grid depends only on the grain, the result is
 * identical at every thread count. Recorded as `operands` inputs read
 * once and one element written.
 */
template <typename Acc, typename Partial, typename Combine>
Acc
reduceAll(const char *name, core::OpCategory category, int64_t n,
          int operands, double flops_per_elem, Acc init,
          Partial partial, Combine combine)
{
    core::ScopedOp op(name, category);
    int64_t grain = util::grainFor(flops_per_elem);
    std::vector<decltype(partial(n, n))> partials(
        static_cast<size_t>((n + grain - 1) / grain));
    util::parallelFor(
        0, static_cast<int64_t>(partials.size()), 1,
        [&](int64_t c0, int64_t c1) {
            for (int64_t c = c0; c < c1; c++) {
                partials[static_cast<size_t>(c)] =
                    partial(c * grain, std::min(n, (c + 1) * grain));
            }
        });
    Acc acc = init;
    for (const auto &p : partials)
        acc = combine(acc, p);
    auto elems = static_cast<double>(n);
    op.setFlops(elems * flops_per_elem);
    op.setBytesRead(operands * elems * elemBytes);
    op.setBytesWritten(elemBytes);
    return acc;
}

} // namespace nsbench::tensor::detail

#endif // NSBENCH_TENSOR_OPS_COMMON_HH
