#include "workloads/perception.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/profiler.hh"
#include "util/logging.hh"

namespace nsbench::workloads
{

using core::OpCategory;
using core::Phase;
using core::PhaseScope;
using core::ScopedOp;
using data::AttributeId;
using tensor::Tensor;

namespace
{

/** Sharpness of the template-score softmax. */
constexpr float matchTemperature = 20.0f;

/** Mass kept on the point estimate of peaked PMFs. A trained,
 * confident frontend concentrates nearly all mass on one value; the
 * tiny remainder keeps downstream probabilistic code robust while
 * falling below the symbolic backends' sparsification thresholds. */
constexpr float peakMass = 0.99f;

Tensor
peakedPmf(int domain, int estimate)
{
    Tensor pmf({domain});
    if (domain == 1) {
        pmf(0) = 1.0f;
        return pmf;
    }
    float rest = (1.0f - peakMass) / static_cast<float>(domain - 1);
    for (int v = 0; v < domain; v++)
        pmf(v) = v == estimate ? peakMass : rest;
    return pmf;
}

} // namespace

std::vector<uint64_t>
litMask(const float *pixels, int64_t pitch, int64_t size)
{
    std::vector<uint64_t> mask(
        static_cast<size_t>((size * size + 63) / 64));
    for (int64_t y = 0; y < size; y++) {
        for (int64_t x = 0; x < size; x++) {
            if (pixels[y * pitch + x] > litThreshold) {
                auto bit = static_cast<size_t>(y * size + x);
                mask[bit / 64] |= uint64_t{1} << (bit % 64);
            }
        }
    }
    return mask;
}

float
maskIoU(const std::vector<uint64_t> &a, const std::vector<uint64_t> &b)
{
    int64_t inter = 0, uni = 0;
    for (size_t w = 0; w < a.size(); w++) {
        inter += std::popcount(a[w] & b[w]);
        uni += std::popcount(a[w] | b[w]);
    }
    return uni > 0 ? static_cast<float>(inter) / static_cast<float>(uni)
                   : 0.0f;
}

RavenPerception::RavenPerception(int grid, uint64_t seed)
    : grid_(grid), templateRenderer_(grid, seed ^ 0xbeefcafeull)
{
    util::Rng rng(seed);
    // Small perception trunk; its classification head is vestigial —
    // the compute profile is what matters (see file comment).
    trunk_ = nn::makeConvNet(
        1, data::RavenGenerator::imageSize,
        {{8, 3, 1, 1, true}, {16, 3, 1, 1, true}}, {64, 16}, rng);

    // One rendered single-object template per (type, size).
    int type_domain = data::attributeDomain(AttributeId::Type, grid);
    int size_domain = data::attributeDomain(AttributeId::Size, grid);
    int64_t cell = data::RavenGenerator::imageSize / grid;
    for (int t = 0; t < type_domain; t++) {
        for (int s = 0; s < size_domain; s++) {
            data::PanelSpec spec;
            spec.grid = grid;
            spec.values = {0, t, s, 9}; // one bright object at slot 0
            spec.slots = {0};
            Tensor panel = templateRenderer_.render(spec);
            Tensor cell_img({cell, cell});
            for (int64_t y = 0; y < cell; y++) {
                for (int64_t x = 0; x < cell; x++)
                    cell_img(y, x) = panel(0, y, x);
            }
            templateMasks_.push_back(
                litMask(cell_img.data().data(), cell, cell));
            templates_.push_back(std::move(cell_img));
        }
    }
}

uint64_t
RavenPerception::storageBytes() const
{
    uint64_t bytes = trunk_->paramBytes();
    for (const auto &t : templates_)
        bytes += t.bytes();
    return bytes;
}

void
RavenPerception::matchCell(const std::vector<uint64_t> &cell_mask,
                           Tensor &type_scores,
                           Tensor &size_scores) const
{
    int size_domain =
        data::attributeDomain(AttributeId::Size, grid_);

    for (size_t idx = 0; idx < templateMasks_.size(); idx++) {
        float iou = maskIoU(cell_mask, templateMasks_[idx]);
        auto t = static_cast<int64_t>(idx) / size_domain;
        auto s = static_cast<int64_t>(idx) % size_domain;
        type_scores(t) = std::max(type_scores(t), iou);
        size_scores(s) = std::max(size_scores(s), iou);
    }
}

PanelBelief
RavenPerception::perceive(const Tensor &image)
{
    // Neural trunk forward: batch of one.
    int64_t hw = data::RavenGenerator::imageSize;
    Tensor batch = image.reshaped({1, 1, hw, hw});
    Tensor trunk_out = trunk_->forward(batch);
    (void)trunk_out;
    return estimate(image);
}

std::vector<PanelBelief>
RavenPerception::perceiveBatch(const std::vector<Tensor> &images)
{
    util::panicIf(images.empty(), "perceiveBatch: no images");
    int64_t hw = data::RavenGenerator::imageSize;

    // One stack + one host-to-device transfer + one trunk forward
    // over the whole batch.
    std::vector<Tensor> stacked;
    stacked.reserve(images.size());
    for (const auto &img : images)
        stacked.push_back(img.reshaped({1, 1, hw, hw}));
    Tensor batch =
        tensor::transfer(tensor::concat(stacked, 0), "h2d");
    Tensor trunk_out = trunk_->forward(batch);
    (void)trunk_out;

    std::vector<PanelBelief> beliefs;
    beliefs.reserve(images.size());
    for (const auto &img : images)
        beliefs.push_back(estimate(img));
    return beliefs;
}

PanelBelief
RavenPerception::estimate(const Tensor &image)
{
    int64_t hw = data::RavenGenerator::imageSize;
    int64_t cell = hw / grid_;
    int number_domain =
        data::attributeDomain(AttributeId::Number, grid_);
    int type_domain = data::attributeDomain(AttributeId::Type, grid_);
    int size_domain = data::attributeDomain(AttributeId::Size, grid_);
    int color_domain =
        data::attributeDomain(AttributeId::Color, grid_);

    // Occupancy scan + color statistics.
    int occupied = 0;
    double lit_sum = 0.0;
    int64_t lit_count = 0;
    std::vector<std::pair<int64_t, int64_t>> occupied_cells;
    {
        ScopedOp op("occupancy_scan", OpCategory::VectorElementwise);
        for (int64_t cr = 0; cr < grid_; cr++) {
            for (int64_t cc = 0; cc < grid_; cc++) {
                bool any = false;
                for (int64_t y = 0; y < cell; y++) {
                    for (int64_t x = 0; x < cell; x++) {
                        float v =
                            image(0, cr * cell + y, cc * cell + x);
                        if (v > litThreshold) {
                            any = true;
                            lit_sum += v;
                            lit_count++;
                        }
                    }
                }
                if (any) {
                    occupied++;
                    occupied_cells.emplace_back(cr * cell,
                                                cc * cell);
                }
            }
        }
        auto n = static_cast<double>(hw * hw);
        op.setFlops(n);
        op.setBytesRead(n * 4.0);
        op.setBytesWritten(16.0);
    }

    PanelBelief belief;
    int number_est = std::clamp(occupied - 1, 0, number_domain - 1);
    belief.pmfs[0] = peakedPmf(number_domain, number_est);

    // Type/size via template IoU over all occupied cells, batched:
    // one matching op per panel, one calibration softmax per
    // attribute (the kernel granularity a fused perception head
    // would emit). Per-cell PMFs are kept for object-level consumers
    // (PrAE).
    auto n_cells = static_cast<int64_t>(occupied_cells.size());
    Tensor type_mat({std::max<int64_t>(n_cells, 1), type_domain});
    Tensor size_mat({std::max<int64_t>(n_cells, 1), size_domain});
    {
        ScopedOp op("template_match", OpCategory::VectorElementwise);
        for (int64_t c = 0; c < n_cells; c++) {
            Tensor cell_type({type_domain});
            Tensor cell_size({size_domain});
            const auto &[row, col] =
                occupied_cells[static_cast<size_t>(c)];
            matchCell(litMask(image.data().data() + row * hw + col, hw,
                              cell),
                      cell_type, cell_size);
            for (int64_t t = 0; t < type_domain; t++)
                type_mat(c, t) = cell_type(t);
            for (int64_t sz = 0; sz < size_domain; sz++)
                size_mat(c, sz) = cell_size(sz);
        }
        double flops = static_cast<double>(n_cells) *
                       static_cast<double>(templates_.size()) *
                       static_cast<double>(cell * cell) * 4.0;
        op.setFlops(flops);
        op.setBytesRead(flops);
        op.setBytesWritten(
            static_cast<double>(type_mat.numel() +
                                size_mat.numel()) *
            4.0);
    }

    Tensor type_cal = tensor::softmax(
        tensor::mulScalar(type_mat, matchTemperature));
    Tensor size_cal = tensor::softmax(
        tensor::mulScalar(size_mat, matchTemperature));
    for (int64_t c = 0; c < n_cells; c++) {
        Tensor ct({type_domain});
        Tensor cs({size_domain});
        for (int64_t t = 0; t < type_domain; t++)
            ct(t) = type_cal(c, t);
        for (int64_t sz = 0; sz < size_domain; sz++)
            cs(sz) = size_cal(c, sz);
        belief.cellBeliefs.push_back({std::move(ct), std::move(cs)});
    }

    Tensor type_scores = tensor::maxAxis(type_mat, 0);
    Tensor size_scores = tensor::maxAxis(size_mat, 0);
    belief.pmfs[1] =
        tensor::softmax(tensor::mulScalar(
                            type_scores.reshaped({1, type_domain}),
                            matchTemperature))
            .reshaped({type_domain});
    belief.pmfs[2] =
        tensor::softmax(tensor::mulScalar(
                            size_scores.reshaped({1, size_domain}),
                            matchTemperature))
            .reshaped({size_domain});

    // Color from the mean lit intensity (renderer maps color c to
    // intensity 0.3 + 0.07 c).
    float mean = lit_count > 0 ? static_cast<float>(
                                     lit_sum /
                                     static_cast<double>(lit_count))
                               : 0.3f;
    int color_est = std::clamp(
        static_cast<int>(std::lround((mean - 0.3f) / 0.07f)), 0,
        color_domain - 1);
    belief.pmfs[3] = peakedPmf(color_domain, color_est);
    return belief;
}

PerceivedPuzzle
perceivePuzzle(const data::RpmPuzzle &puzzle,
               const data::RavenGenerator &renderer,
               RavenPerception &perception, const std::string &region)
{
    PerceivedPuzzle perceived;
    perceived.answerIndex = puzzle.answerIndex;
    perceived.candidates.resize(8);
    PhaseScope neural(Phase::Neural, region);
    std::vector<Tensor> images;
    images.reserve(16);
    for (const data::PanelSpec &panel : puzzle.context)
        images.push_back(renderer.render(panel));
    for (size_t i = 0; i < 8; i++)
        images.push_back(renderer.render(puzzle.candidates[i]));
    auto beliefs = perception.perceiveBatch(images);
    for (size_t i = 0; i < 8; i++) {
        perceived.context[i] = std::move(beliefs[i]);
        perceived.candidates[i] = std::move(beliefs[i + 8]);
    }
    return perceived;
}

int
selectAnswer(
    const std::array<Tensor, data::numAttributes> &predicted,
    const std::vector<PanelBelief> &candidates,
    const std::string &region)
{
    PhaseScope symbolic(Phase::Symbolic, region);
    int best_candidate = 0;
    float best_score = -1e30f;
    for (int c = 0; c < 8; c++) {
        float score = 0.0f;
        for (size_t a = 0; a < data::numAttributes; a++) {
            float match = tensor::dot(
                predicted[a],
                candidates[static_cast<size_t>(c)].pmfs[a]);
            score += std::log(match + 1e-6f);
        }
        if (score > best_score) {
            best_score = score;
            best_candidate = c;
        }
    }
    return best_candidate;
}

} // namespace nsbench::workloads
