#include "vsa/ops.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/profiler.hh"
#include "tensor/fused.hh"
#include "util/logging.hh"
#include "util/simd.hh"
#include "util/threadpool.hh"
#include "vsa/fft.hh"

namespace nsbench::vsa
{

using core::OpCategory;
using core::ScopedOp;
using tensor::Tensor;

namespace
{

constexpr double elemBytes = sizeof(float);

void
checkSameDim(const char *name, const Tensor &a, const Tensor &b)
{
    util::panicIf(a.dim() != 1 || b.dim() != 1 ||
                      a.size(0) != b.size(0),
                  std::string(name) +
                      ": rank-1 equal-dimension hypervectors required");
}

} // namespace

Tensor
randomHypervector(int64_t dim, util::Rng &rng)
{
    util::panicIf(dim < 1, "randomHypervector: non-positive dimension");
    return Tensor::bipolar({dim}, rng);
}

Tensor
bind(const Tensor &a, const Tensor &b)
{
    checkSameDim("vsa_bind", a, b);
    return tensor::fusedMap("vsa_bind", a, b, 1.0, util::simd::mul);
}

Tensor
unbind(const Tensor &a, const Tensor &b)
{
    checkSameDim("vsa_unbind", a, b);
    return tensor::fusedMap("vsa_unbind", a, b, 1.0, util::simd::mul);
}

Tensor
bundle(const std::vector<Tensor> &vectors)
{
    util::panicIf(vectors.empty(), "vsa_bundle: no vectors");
    int64_t dim = vectors[0].size(0);
    for (const auto &v : vectors)
        checkSameDim("vsa_bundle", vectors[0], v);

    ScopedOp op("vsa_bundle", OpCategory::VectorElementwise);
    Tensor out({dim});
    auto po = out.data();
    // Dimension-sliced bundling: each output element sums the vectors
    // in their given order, exactly as the serial loop (bit-identical).
    util::parallelFor(
        0, dim,
        util::grainFor(static_cast<double>(vectors.size())),
        [&](int64_t lo, int64_t hi) {
            for (const auto &v : vectors) {
                auto pv = v.data();
                util::simd::accumulate(po.data() + lo,
                                       pv.data() + lo, hi - lo);
            }
        });
    double total = static_cast<double>(dim) *
                   static_cast<double>(vectors.size());
    op.setFlops(total);
    op.setBytesRead(total * elemBytes);
    op.setBytesWritten(static_cast<double>(dim) * elemBytes);
    return out;
}

Tensor
bundleMajority(const std::vector<Tensor> &vectors)
{
    Tensor sum = bundle(vectors);
    // Threshold the bundle sum in place; it is dead afterwards.
    tensor::fusedMapUnary("vsa_majority", sum, sum, 1.0,
                          util::simd::signBipolar);
    return sum;
}

Tensor
permuteShift(const Tensor &a, int64_t k)
{
    util::panicIf(a.dim() != 1, "vsa_permute: rank-1 required");
    ScopedOp op("vsa_permute", OpCategory::DataTransform);
    int64_t d = a.size(0);
    // The shift is a bijection: every output element is written once.
    Tensor out = Tensor::uninitialized({d});
    auto pa = a.data();
    auto po = out.data();
    int64_t shift = ((k % d) + d) % d;
    for (int64_t i = 0; i < d; i++)
        po[static_cast<size_t>((i + shift) % d)] =
            pa[static_cast<size_t>(i)];
    auto n = static_cast<double>(d);
    op.setBytesRead(n * elemBytes);
    op.setBytesWritten(n * elemBytes);
    return out;
}

namespace
{

/**
 * Shared body of circular_conv and circular_corr. Both operands are
 * widened to double once per call, b twice over ([b, b]) so the
 * kernel reads the wrapped operand without a modulo. Outputs are
 * independent dot products, so any split of them over the pool is
 * bit-identical to the serial loop.
 */
Tensor
circularOp(const char *name, const Tensor &a, const Tensor &b,
           void (*rows)(const double *, const double *, float *,
                        int64_t, int64_t, int64_t))
{
    checkSameDim(name, a, b);
    ScopedOp op(name, OpCategory::VectorElementwise);
    int64_t d = a.size(0);
    Tensor out = Tensor::uninitialized({d});
    auto pa = a.data();
    auto pb = b.data();
    std::vector<double> wa(pa.begin(), pa.end());
    std::vector<double> wbb(2 * pb.size());
    std::copy(pb.begin(), pb.end(), wbb.begin());
    std::copy(pb.begin(), pb.end(), wbb.begin() + d);
    float *po = out.data().data();
    // Chunks of whole 32-output blocks, the kernel's widest step.
    constexpr int64_t block = 32;
    util::parallelFor(
        0, d,
        block * util::grainFor(2.0 * block * static_cast<double>(d)),
        [&](int64_t i0, int64_t i1) {
            rows(wa.data(), wbb.data(), po, i0, i1, d);
        });
    auto n = static_cast<double>(d);
    op.setFlops(2.0 * n * n);
    // Schoolbook form streams the full B vector per output element.
    op.setBytesRead((n + n * n) * elemBytes);
    op.setBytesWritten(n * elemBytes);
    return out;
}

} // namespace

Tensor
circularConvolve(const Tensor &a, const Tensor &b)
{
    return circularOp("circular_conv", a, b,
                      util::simd::circularConvRows);
}

Tensor
circularCorrelate(const Tensor &a, const Tensor &b)
{
    return circularOp("circular_corr", a, b,
                      util::simd::circularCorrRows);
}

Tensor
fftCircularConvolve(const Tensor &a, const Tensor &b)
{
    checkSameDim("fft_circular_conv", a, b);
    auto d = static_cast<size_t>(a.size(0));
    util::panicIf(!isPowerOfTwo(d),
                  "fft_circular_conv: dimension must be a power of 2");

    ScopedOp op("fft_circular_conv", OpCategory::VectorElementwise);
    auto pa = a.data();
    auto pb = b.data();
    std::vector<std::complex<double>> fa(pa.begin(), pa.end());
    std::vector<std::complex<double>> fb(pb.begin(), pb.end());
    fft(fa, false);
    fft(fb, false);
    util::simd::complexMulInPlace(fa.data(), fb.data(),
                                  static_cast<int64_t>(d));
    fft(fa, true);

    Tensor out = Tensor::uninitialized({static_cast<int64_t>(d)});
    auto po = out.data();
    for (size_t i = 0; i < d; i++)
        po[i] = static_cast<float>(fa[i].real());

    auto n = static_cast<double>(d);
    double logn = std::log2(n);
    op.setFlops(3.0 * 5.0 * n * logn + 6.0 * n);
    op.setBytesRead(2.0 * n * elemBytes);
    op.setBytesWritten(n * elemBytes);
    return out;
}

Tensor
unitaryVector(int64_t dim, util::Rng &rng)
{
    util::panicIf(!isPowerOfTwo(static_cast<size_t>(dim)),
                  "unitaryVector: dimension must be a power of 2");
    auto d = static_cast<size_t>(dim);
    // Random unit-magnitude spectrum with conjugate symmetry so the
    // time-domain signal is real.
    std::vector<std::complex<double>> spectrum(d);
    spectrum[0] = rng.bernoulli(0.5) ? 1.0 : -1.0;
    spectrum[d / 2] = rng.bernoulli(0.5) ? 1.0 : -1.0;
    for (size_t i = 1; i < d / 2; i++) {
        double theta = rng.uniformDouble(0.0, 2.0 * 3.14159265358979);
        spectrum[i] = {std::cos(theta), std::sin(theta)};
        spectrum[d - i] = std::conj(spectrum[i]);
    }
    fft(spectrum, true);
    // Unit-magnitude spectrum + Parseval gives a unit-L2 time-domain
    // vector, and convolution powers keep that norm exactly.
    Tensor out = Tensor::uninitialized({dim});
    auto po = out.data();
    for (size_t i = 0; i < d; i++)
        po[i] = static_cast<float>(spectrum[i].real());
    return out;
}

Tensor
convPower(const Tensor &base, int power)
{
    util::panicIf(base.dim() != 1, "convPower: rank-1 required");
    auto d = static_cast<size_t>(base.size(0));
    util::panicIf(!isPowerOfTwo(d),
                  "convPower: dimension must be a power of 2");

    core::ScopedOp op("vsa_conv_power",
                      core::OpCategory::VectorElementwise);
    auto pb = base.data();
    std::vector<std::complex<double>> spectrum(pb.begin(), pb.end());
    fft(spectrum, false);
    for (auto &c : spectrum) {
        double mag = std::abs(c);
        double phase = std::arg(c);
        double new_mag = std::pow(mag, power);
        double new_phase = phase * power;
        c = {new_mag * std::cos(new_phase),
             new_mag * std::sin(new_phase)};
    }
    fft(spectrum, true);
    Tensor out = Tensor::uninitialized({base.size(0)});
    auto po = out.data();
    for (size_t i = 0; i < d; i++)
        po[i] = static_cast<float>(spectrum[i].real());

    auto n = static_cast<double>(d);
    op.setFlops(2.0 * 5.0 * n * std::log2(n) + 8.0 * n);
    op.setBytesRead(n * elemBytes);
    op.setBytesWritten(n * elemBytes);
    return out;
}

float
cosineSimilarity(const Tensor &a, const Tensor &b)
{
    checkSameDim("vsa_cosine", a, b);
    ScopedOp op("vsa_cosine", OpCategory::VectorElementwise);
    auto pa = a.data();
    auto pb = b.data();
    double dot = 0.0, na = 0.0, nb = 0.0;
    util::simd::cosineChunk(pa.data(), pb.data(),
                            static_cast<int64_t>(pa.size()), &dot,
                            &na, &nb);
    auto n = static_cast<double>(a.numel());
    op.setFlops(6.0 * n);
    op.setBytesRead(2.0 * n * elemBytes);
    op.setBytesWritten(elemBytes);
    double denom = std::sqrt(na) * std::sqrt(nb);
    return denom > 0.0 ? static_cast<float>(dot / denom) : 0.0f;
}

float
hammingSimilarity(const Tensor &a, const Tensor &b)
{
    checkSameDim("vsa_hamming", a, b);
    ScopedOp op("vsa_hamming", OpCategory::VectorElementwise);
    auto pa = a.data();
    auto pb = b.data();
    // Sign agreement is a bit test: the SIMD backend reduces each
    // 8-lane block to a sign bitmask and popcounts it, which is exact.
    int64_t match = util::simd::signMatchChunk(
        pa.data(), pb.data(), static_cast<int64_t>(pa.size()));
    auto n = static_cast<double>(a.numel());
    op.setFlops(n);
    op.setBytesRead(2.0 * n * elemBytes);
    op.setBytesWritten(elemBytes);
    return static_cast<float>(match) / static_cast<float>(a.numel());
}

} // namespace nsbench::vsa
