#include <algorithm>
#include <limits>

#include "tensor/ops.hh"
#include "tensor/ops_common.hh"

namespace nsbench::tensor
{

using detail::elemBytes;

Tensor
conv2d(const Tensor &input, const Tensor &weight, const Tensor &bias,
       int64_t stride, int64_t padding)
{
    util::panicIf(input.dim() != 4 || weight.dim() != 4,
                  "conv2d: NCHW input and OCKK weight required");
    util::panicIf(stride < 1, "conv2d: stride must be positive");
    util::panicIf(padding < 0, "conv2d: negative padding");

    int64_t n = input.size(0), c = input.size(1);
    int64_t h = input.size(2), w = input.size(3);
    int64_t o = weight.size(0), kc = weight.size(1);
    int64_t kh = weight.size(2), kw = weight.size(3);
    util::panicIf(kc != c, "conv2d: channel mismatch");
    bool has_bias = !bias.empty();
    util::panicIf(has_bias && (bias.dim() != 1 || bias.size(0) != o),
                  "conv2d: bias shape mismatch");

    // Checked before dividing: the division truncates toward zero, so
    // a kernel one row too tall at stride 2 would still yield oh == 1.
    util::panicIf(kh > h + 2 * padding || kw > w + 2 * padding,
                  "conv2d: kernel exceeds input");
    int64_t oh = (h + 2 * padding - kh) / stride + 1;
    int64_t ow = (w + 2 * padding - kw) / stride + 1;

    core::ScopedOp op("conv2d", core::OpCategory::Convolution);
    // Every output element is written exactly once (bias/zero is
    // folded into its accumulator).
    Tensor out = Tensor::uninitialized({n, o, oh, ow});
    const float *src = input.data().data();
    const float *wt = weight.data().data();
    float *dst = out.data().data();
    const util::simd::ConvGeometry geom{
        c, h, w, kh, kw, stride, padding, oh, ow};

    // Parallel over (batch, output-channel block): each lane writes
    // disjoint output planes, and every output's arithmetic is the
    // same at any thread count and on either backend.
    const int64_t block = util::simd::kConvPlaneBlock;
    int64_t blocks = (o + block - 1) / block;
    double block_macs = static_cast<double>(block * oh * ow) *
                        static_cast<double>(c * kh * kw);
    const float *bias_data = has_bias ? bias.data().data() : nullptr;
    util::parallelFor(
        0, n * blocks, util::grainFor(2.0 * block_macs),
        [&](int64_t p0, int64_t p1) {
            for (int64_t p = p0; p < p1; p++) {
                int64_t b = p / blocks;
                int64_t oc = p % blocks * block;
                util::simd::conv2dPlanes(
                    src + b * c * h * w, wt + oc * c * kh * kw,
                    bias_data ? bias_data + oc : nullptr,
                    dst + (b * o + oc) * oh * ow,
                    std::min(block, o - oc), geom);
            }
        });

    double macs = static_cast<double>(n * o * oh * ow) *
                  static_cast<double>(c * kh * kw);
    op.setFlops(2.0 * macs);
    op.setBytesRead(
        static_cast<double>(input.numel() + weight.numel() +
                            (has_bias ? o : 0)) *
        elemBytes);
    op.setBytesWritten(static_cast<double>(out.numel()) * elemBytes);
    return out;
}

namespace
{

template <typename Fold>
Tensor
pool2d(const char *name, const Tensor &input, int64_t kernel,
       int64_t stride, float init, Fold fold, bool mean)
{
    util::panicIf(input.dim() != 4, "pool2d: NCHW input required");
    util::panicIf(kernel < 1 || stride < 1,
                  "pool2d: kernel/stride must be positive");

    int64_t n = input.size(0), c = input.size(1);
    int64_t h = input.size(2), w = input.size(3);
    // Checked before dividing, as in conv2d.
    util::panicIf(kernel > h || kernel > w,
                  "pool2d: kernel exceeds input");
    int64_t oh = (h - kernel) / stride + 1;
    int64_t ow = (w - kernel) / stride + 1;

    core::ScopedOp op(name, core::OpCategory::VectorElementwise);
    Tensor out = Tensor::uninitialized({n, c, oh, ow});
    auto src = input.data();
    auto dst = out.data();

    // Parallel over (batch, channel) planes, mirroring conv2d.
    util::parallelFor(
        0, n * c,
        util::grainFor(static_cast<double>(oh * ow) *
                       static_cast<double>(kernel * kernel)),
        [&](int64_t p0, int64_t p1) {
            for (int64_t p = p0; p < p1; p++) {
                int64_t b = p / c;
                int64_t ch = p % c;
                for (int64_t oy = 0; oy < oh; oy++) {
                    for (int64_t ox = 0; ox < ow; ox++) {
                        float acc = init;
                        for (int64_t ky = 0; ky < kernel; ky++) {
                            for (int64_t kx = 0; kx < kernel; kx++) {
                                int64_t iy = oy * stride + ky;
                                int64_t ix = ox * stride + kx;
                                acc = fold(
                                    acc,
                                    src[static_cast<size_t>(
                                        ((b * c + ch) * h + iy) * w +
                                        ix)]);
                            }
                        }
                        if (mean)
                            acc /= static_cast<float>(kernel *
                                                      kernel);
                        dst[static_cast<size_t>(
                            ((b * c + ch) * oh + oy) * ow + ox)] =
                            acc;
                    }
                }
            }
        });

    auto in_n = static_cast<double>(input.numel());
    op.setFlops(static_cast<double>(out.numel()) *
                static_cast<double>(kernel * kernel));
    op.setBytesRead(in_n * elemBytes);
    op.setBytesWritten(static_cast<double>(out.numel()) * elemBytes);
    return out;
}

} // namespace

Tensor
maxPool2d(const Tensor &input, int64_t kernel, int64_t stride)
{
    return pool2d("max_pool2d", input, kernel, stride,
                  -std::numeric_limits<float>::infinity(),
                  [](float acc, float v) { return std::max(acc, v); },
                  false);
}

Tensor
avgPool2d(const Tensor &input, int64_t kernel, int64_t stride)
{
    return pool2d("avg_pool2d", input, kernel, stride, 0.0f,
                  [](float acc, float v) { return acc + v; }, true);
}

} // namespace nsbench::tensor
