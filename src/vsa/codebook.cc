#include "vsa/codebook.hh"

#include <cmath>

#include <algorithm>
#include <vector>

#include "core/profiler.hh"
#include "core/sparsity.hh"
#include "util/logging.hh"
#include "util/simd.hh"
#include "util/threadpool.hh"

namespace nsbench::vsa
{

using core::OpCategory;
using core::ScopedOp;
using tensor::Tensor;

namespace
{
constexpr double elemBytes = sizeof(float);
} // namespace

Codebook::Codebook(int64_t entries, int64_t dim, util::Rng &rng)
{
    util::panicIf(entries < 1 || dim < 1,
                  "Codebook: non-positive size");
    atoms_ = Tensor::bipolar({entries, dim}, rng);
    norms_.assign(static_cast<size_t>(entries),
                  std::sqrt(static_cast<float>(dim)));
}

Codebook::Codebook(tensor::Tensor atoms) : atoms_(std::move(atoms))
{
    util::panicIf(atoms_.dim() != 2,
                  "Codebook: atom matrix must be rank-2");
    util::panicIf(atoms_.numel() == 0, "Codebook: non-positive size");
    int64_t n = entries();
    int64_t d = dim();
    norms_.resize(static_cast<size_t>(n));
    auto pa = atoms_.data();
    for (int64_t e = 0; e < n; e++) {
        double acc = 0.0;
        for (int64_t i = 0; i < d; i++) {
            float v = pa[static_cast<size_t>(e * d + i)];
            acc += static_cast<double>(v) * v;
        }
        norms_[static_cast<size_t>(e)] =
            static_cast<float>(std::sqrt(acc));
    }
}

Tensor
Codebook::atom(int64_t index) const
{
    util::panicIf(index < 0 || index >= entries(),
                  "Codebook::atom: index out of range");
    Tensor out = Tensor::uninitialized({dim()});
    auto src = atoms_.data();
    auto dst = out.data();
    auto d = static_cast<size_t>(dim());
    std::copy(src.data() + static_cast<size_t>(index) * d,
              src.data() + static_cast<size_t>(index + 1) * d,
              dst.begin());
    return out;
}

Tensor
Codebook::encodePmf(const Tensor &pmf, std::string_view stage,
                    float threshold) const
{
    util::panicIf(pmf.dim() != 1 || pmf.size(0) != entries(),
                  "Codebook::encodePmf: PMF length must equal entry "
                  "count");
    if (!stage.empty())
        core::recordSpanSparsity(stage, pmf.data(), threshold);

    ScopedOp op("pmf_to_vsa", OpCategory::VectorElementwise);
    int64_t d = dim();
    Tensor out({d});
    auto po = out.data();
    auto pw = pmf.data();
    auto pa = atoms_.data();

    int64_t n = entries();
    int64_t active = 0;
    for (int64_t e = 0; e < n; e++) {
        if (std::abs(pw[static_cast<size_t>(e)]) > threshold)
            active++;
    }

    // Parallel over dimension slices: every output element accumulates
    // the active atoms in entry order, exactly as the serial loop, so
    // the superposition is bit-identical at any thread count.
    util::parallelFor(
        0, d, util::grainFor(2.0 * static_cast<double>(active)),
        [&](int64_t lo, int64_t hi) {
            for (int64_t e = 0; e < n; e++) {
                float weight = pw[static_cast<size_t>(e)];
                if (std::abs(weight) <= threshold)
                    continue;
                const float *row = &pa[static_cast<size_t>(e * d)];
                util::simd::axpy(po.data() + lo, row + lo, weight,
                                 hi - lo);
            }
        });

    double touched = static_cast<double>(active) *
                     static_cast<double>(d);
    op.setFlops(2.0 * touched);
    op.setBytesRead(touched * elemBytes +
                    static_cast<double>(entries()) * elemBytes);
    op.setBytesWritten(static_cast<double>(d) * elemBytes);
    return out;
}

Tensor
Codebook::decodePmf(const Tensor &hv, std::string_view stage,
                    float threshold) const
{
    util::panicIf(hv.dim() != 1 || hv.size(0) != dim(),
                  "Codebook::decodePmf: dimension mismatch");
    ScopedOp op("vsa_to_pmf", OpCategory::VectorElementwise);

    int64_t n = entries();
    int64_t d = dim();
    // Every entry's similarity is stored unconditionally below.
    Tensor out = Tensor::uninitialized({n});
    auto po = out.data();
    auto ph = hv.data();
    auto pa = atoms_.data();

    double hv_norm = 0.0;
    for (int64_t i = 0; i < d; i++)
        hv_norm += static_cast<double>(ph[static_cast<size_t>(i)]) *
                   ph[static_cast<size_t>(i)];
    hv_norm = std::sqrt(hv_norm);

    // The O(n*d) similarity sweep is parallel over entries (each
    // entry's dot product keeps serial order: bit-identical); the
    // cheap O(n) renormalization stays serial in entry order.
    util::parallelFor(
        0, n, util::grainFor(2.0 * static_cast<double>(d)),
        [&](int64_t e0, int64_t e1) {
            for (int64_t e = e0; e < e1; e++) {
                const float *row = &pa[static_cast<size_t>(e * d)];
                double acc =
                    util::simd::dotChunk(ph.data(), row, d);
                double denom =
                    hv_norm * norms_[static_cast<size_t>(e)];
                double sim = denom > 0.0 ? acc / denom : 0.0;
                po[static_cast<size_t>(e)] =
                    sim > threshold ? static_cast<float>(sim) : 0.0f;
            }
        });
    double total = 0.0;
    for (int64_t e = 0; e < n; e++)
        total += po[static_cast<size_t>(e)];
    if (total > 0.0) {
        for (int64_t e = 0; e < n; e++)
            po[static_cast<size_t>(e)] /= static_cast<float>(total);
    }

    double touched = static_cast<double>(n) * static_cast<double>(d);
    op.setFlops(2.0 * touched + 2.0 * static_cast<double>(n));
    op.setBytesRead((touched + static_cast<double>(d)) * elemBytes);
    op.setBytesWritten(static_cast<double>(n) * elemBytes);

    if (!stage.empty()) {
        core::recordSpanSparsity(
            stage, std::span<const float>(out.data()));
    }
    return out;
}

CleanupResult
Codebook::cleanup(const Tensor &hv) const
{
    util::panicIf(hv.dim() != 1 || hv.size(0) != dim(),
                  "Codebook::cleanup: dimension mismatch");
    ScopedOp op("codebook_cleanup", OpCategory::MatMul);

    int64_t n = entries();
    int64_t d = dim();
    auto ph = hv.data();
    auto pa = atoms_.data();

    double hv_norm = 0.0;
    for (int64_t i = 0; i < d; i++)
        hv_norm += static_cast<double>(ph[static_cast<size_t>(i)]) *
                   ph[static_cast<size_t>(i)];
    hv_norm = std::sqrt(hv_norm);

    // Chunked nearest-neighbour sweep: each chunk finds its first
    // strict maximum (full double precision), chunks combine in index
    // order with a strict comparison. The winner is the earliest
    // global maximum — the serial rule — independent of thread count.
    struct PartialBest
    {
        int64_t index = -1;
        double similarity = 0.0;
    };
    int64_t grain =
        util::grainFor(2.0 * static_cast<double>(d));
    std::vector<PartialBest> partials(
        static_cast<size_t>((n + grain - 1) / grain));
    util::parallelFor(
        0, n, grain, [&](int64_t e0, int64_t e1) {
            PartialBest local;
            for (int64_t e = e0; e < e1; e++) {
                const float *row = &pa[static_cast<size_t>(e * d)];
                double acc =
                    util::simd::dotChunk(ph.data(), row, d);
                double denom =
                    hv_norm * norms_[static_cast<size_t>(e)];
                double sim = denom > 0.0 ? acc / denom : 0.0;
                if (local.index < 0 || sim > local.similarity) {
                    local.index = e;
                    local.similarity = sim;
                }
            }
            partials[static_cast<size_t>(e0 / grain)] = local;
        });

    PartialBest overall;
    for (const PartialBest &p : partials) {
        if (p.index >= 0 &&
            (overall.index < 0 || p.similarity > overall.similarity)) {
            overall = p;
        }
    }
    CleanupResult best;
    best.index = overall.index;
    best.similarity = static_cast<float>(overall.similarity);

    double touched = static_cast<double>(n) * static_cast<double>(d);
    op.setFlops(2.0 * touched);
    op.setBytesRead((touched + static_cast<double>(d)) * elemBytes);
    op.setBytesWritten(elemBytes);
    return best;
}

} // namespace nsbench::vsa
