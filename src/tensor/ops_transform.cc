#include <algorithm>
#include <numeric>

#include "tensor/ops.hh"
#include "tensor/ops_common.hh"

namespace nsbench::tensor
{

using detail::elemBytes;

Tensor
transpose2d(const Tensor &a)
{
    util::panicIf(a.dim() != 2, "transpose2d: rank-2 tensor required");
    core::ScopedOp op("transpose", core::OpCategory::DataTransform);
    int64_t m = a.size(0), n = a.size(1);
    Tensor out = Tensor::uninitialized({n, m});
    auto src = a.data();
    auto dst = out.data();
    for (int64_t i = 0; i < m; i++) {
        for (int64_t j = 0; j < n; j++) {
            dst[static_cast<size_t>(j * m + i)] =
                src[static_cast<size_t>(i * n + j)];
        }
    }
    auto numel = static_cast<double>(a.numel());
    op.setBytesRead(numel * elemBytes);
    op.setBytesWritten(numel * elemBytes);
    return out;
}

Tensor
permute(const Tensor &a, const std::vector<int64_t> &perm)
{
    auto rank = static_cast<int64_t>(a.dim());
    util::panicIf(static_cast<int64_t>(perm.size()) != rank,
                  "permute: permutation rank mismatch");
    std::vector<bool> seen(static_cast<size_t>(rank), false);
    for (int64_t p : perm) {
        util::panicIf(p < 0 || p >= rank || seen[static_cast<size_t>(p)],
                      "permute: invalid permutation");
        seen[static_cast<size_t>(p)] = true;
    }

    core::ScopedOp op("permute", core::OpCategory::DataTransform);

    Shape out_shape(static_cast<size_t>(rank));
    for (int64_t d = 0; d < rank; d++) {
        out_shape[static_cast<size_t>(d)] =
            a.shape()[static_cast<size_t>(perm[static_cast<size_t>(d)])];
    }
    Tensor out = Tensor::uninitialized(out_shape);

    // Row-major strides of the input.
    std::vector<int64_t> in_strides(static_cast<size_t>(rank), 1);
    for (int64_t d = rank - 1; d-- > 0;) {
        in_strides[static_cast<size_t>(d)] =
            in_strides[static_cast<size_t>(d + 1)] *
            a.shape()[static_cast<size_t>(d + 1)];
    }

    auto src = a.data();
    auto dst = out.data();
    std::vector<int64_t> idx(static_cast<size_t>(rank), 0);
    for (int64_t flat = 0; flat < out.numel(); flat++) {
        int64_t src_flat = 0;
        for (int64_t d = 0; d < rank; d++) {
            src_flat += idx[static_cast<size_t>(d)] *
                        in_strides[static_cast<size_t>(
                            perm[static_cast<size_t>(d)])];
        }
        dst[static_cast<size_t>(flat)] =
            src[static_cast<size_t>(src_flat)];
        // Odometer increment over the output index.
        for (int64_t d = rank - 1; d >= 0; d--) {
            if (++idx[static_cast<size_t>(d)] <
                out_shape[static_cast<size_t>(d)]) {
                break;
            }
            idx[static_cast<size_t>(d)] = 0;
        }
    }

    auto numel = static_cast<double>(a.numel());
    op.setBytesRead(numel * elemBytes);
    op.setBytesWritten(numel * elemBytes);
    return out;
}

Tensor
concat(const std::vector<Tensor> &parts, int64_t axis)
{
    util::panicIf(parts.empty(), "concat: no tensors");
    auto rank = static_cast<int64_t>(parts[0].dim());
    util::panicIf(axis < 0 || axis >= rank,
                  "concat: axis out of range");
    for (const auto &p : parts) {
        util::panicIf(static_cast<int64_t>(p.dim()) != rank,
                      "concat: rank mismatch");
        for (int64_t d = 0; d < rank; d++) {
            util::panicIf(d != axis &&
                              p.shape()[static_cast<size_t>(d)] !=
                                  parts[0].shape()[
                                      static_cast<size_t>(d)],
                          "concat: non-axis extent mismatch");
        }
    }

    core::ScopedOp op("concat", core::OpCategory::DataTransform);

    Shape out_shape = parts[0].shape();
    int64_t total_axis = 0;
    for (const auto &p : parts)
        total_axis += p.shape()[static_cast<size_t>(axis)];
    out_shape[static_cast<size_t>(axis)] = total_axis;

    int64_t inner = 1;
    for (int64_t d = axis + 1; d < rank; d++)
        inner *= out_shape[static_cast<size_t>(d)];
    int64_t outer = 1;
    for (int64_t d = 0; d < axis; d++)
        outer *= out_shape[static_cast<size_t>(d)];

    Tensor out = Tensor::uninitialized(out_shape);
    auto dst = out.data();
    int64_t axis_off = 0;
    for (const auto &p : parts) {
        int64_t p_axis = p.shape()[static_cast<size_t>(axis)];
        auto src = p.data();
        for (int64_t o = 0; o < outer; o++) {
            const float *s =
                &src[static_cast<size_t>(o * p_axis * inner)];
            float *d = &dst[static_cast<size_t>(
                (o * total_axis + axis_off) * inner)];
            std::copy(s, s + p_axis * inner, d);
        }
        axis_off += p_axis;
    }

    auto numel = static_cast<double>(out.numel());
    op.setBytesRead(numel * elemBytes);
    op.setBytesWritten(numel * elemBytes);
    return out;
}

Tensor
slice(const Tensor &a, int64_t axis, int64_t start, int64_t length)
{
    auto rank = static_cast<int64_t>(a.dim());
    util::panicIf(axis < 0 || axis >= rank, "slice: axis out of range");
    int64_t extent = a.shape()[static_cast<size_t>(axis)];
    util::panicIf(start < 0 || length < 0 || start + length > extent,
                  "slice: range out of bounds");

    core::ScopedOp op("slice", core::OpCategory::DataTransform);

    Shape out_shape = a.shape();
    out_shape[static_cast<size_t>(axis)] = length;

    int64_t inner = 1;
    for (int64_t d = axis + 1; d < rank; d++)
        inner *= a.shape()[static_cast<size_t>(d)];
    int64_t outer = 1;
    for (int64_t d = 0; d < axis; d++)
        outer *= a.shape()[static_cast<size_t>(d)];

    Tensor out = Tensor::uninitialized(out_shape);
    auto src = a.data();
    auto dst = out.data();
    for (int64_t o = 0; o < outer; o++) {
        const float *s = &src[static_cast<size_t>(
            (o * extent + start) * inner)];
        float *d = &dst[static_cast<size_t>(o * length * inner)];
        std::copy(s, s + length * inner, d);
    }

    auto numel = static_cast<double>(out.numel());
    op.setBytesRead(numel * elemBytes);
    op.setBytesWritten(numel * elemBytes);
    return out;
}

Tensor
gatherRows(const Tensor &a, const std::vector<int64_t> &rows)
{
    util::panicIf(a.dim() != 2, "gatherRows: rank-2 tensor required");
    core::ScopedOp op("gather", core::OpCategory::DataTransform);
    int64_t cols = a.size(1);
    Tensor out =
        Tensor::uninitialized({static_cast<int64_t>(rows.size()), cols});
    auto src = a.data();
    auto dst = out.data();
    for (size_t r = 0; r < rows.size(); r++) {
        int64_t row = rows[r];
        util::panicIf(row < 0 || row >= a.size(0),
                      "gatherRows: row index out of range");
        std::copy(src.data() + row * cols, src.data() + (row + 1) * cols,
                  dst.data() + r * static_cast<size_t>(cols));
    }
    auto numel = static_cast<double>(out.numel());
    op.setBytesRead(numel * elemBytes +
                    static_cast<double>(rows.size()) * 8.0);
    op.setBytesWritten(numel * elemBytes);
    return out;
}

Tensor
maskedSelect(const Tensor &a, const Tensor &mask)
{
    util::panicIf(a.shape() != mask.shape(),
                  "maskedSelect: shape mismatch");
    core::ScopedOp op("masked_select", core::OpCategory::DataTransform);
    auto src = a.data();
    auto msk = mask.data();
    std::vector<float> kept;
    for (size_t i = 0; i < src.size(); i++) {
        if (msk[i] != 0.0f)
            kept.push_back(src[i]);
    }
    auto numel = static_cast<double>(a.numel());
    op.setBytesRead(2.0 * numel * elemBytes);
    op.setBytesWritten(static_cast<double>(kept.size()) * elemBytes);
    auto n = static_cast<int64_t>(kept.size());
    return Tensor({n}, std::move(kept));
}

Tensor
oneHot(const std::vector<int64_t> &indices, int64_t classes)
{
    util::panicIf(classes < 1, "oneHot: need at least one class");
    core::ScopedOp op("one_hot", core::OpCategory::DataTransform);
    Tensor out({static_cast<int64_t>(indices.size()), classes});
    for (size_t i = 0; i < indices.size(); i++) {
        util::panicIf(indices[i] < 0 || indices[i] >= classes,
                      "oneHot: index out of range");
        out.at({static_cast<int64_t>(i), indices[i]}) = 1.0f;
    }
    op.setBytesRead(static_cast<double>(indices.size()) * 8.0);
    op.setBytesWritten(static_cast<double>(out.numel()) * elemBytes);
    return out;
}

Tensor
transfer(const Tensor &a, const char *label)
{
    core::ScopedOp op(label, core::OpCategory::DataMovement);
    Tensor out = a.clone();
    auto numel = static_cast<double>(a.numel());
    op.setBytesRead(numel * elemBytes);
    op.setBytesWritten(numel * elemBytes);
    return out;
}

} // namespace nsbench::tensor
