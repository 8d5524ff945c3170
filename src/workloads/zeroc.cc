#include "workloads/zeroc.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/profiler.hh"
#include "tensor/ops.hh"
#include "util/logging.hh"

namespace nsbench::workloads
{

using core::OpCategory;
using core::OpGraph;
using core::Phase;
using core::PhaseScope;
using core::ScopedOp;
using data::ConceptShape;
using data::PlacedConcept;
using tensor::Tensor;

namespace
{

/** Kernel extents in the energy-model ensemble. */
constexpr std::array<int64_t, 6> kernelExtents = {5, 6, 7, 8, 9, 10};

/** Normalized-energy threshold for an exact template match. */
constexpr float matchThreshold = 0.85f;

/** One detected concept instance. */
struct Detection
{
    ConceptShape shape;
    int64_t extent;
    int64_t row;
    int64_t col;
    float normEnergy;  ///< Match quality in [0, 1].
    float absEnergy;   ///< Evidence mass (scales with template size).
};

} // namespace

void
ZerocWorkload::setUp(uint64_t seed)
{
    rng_ = std::make_unique<util::Rng>(seed);

    energyModels_.clear();
    for (int s = 0; s < data::numConceptShapes; s++) {
        EnergyModel model;
        model.shape = static_cast<ConceptShape>(s);
        for (int64_t e : kernelExtents) {
            PlacedConcept proto{model.shape, 0, 0, e};
            Tensor canvas = data::renderConcept(proto, e);
            float lit = 0.0f;
            for (float v : canvas.data())
                lit += v;
            model.kernels.push_back(canvas.reshaped({1, 1, e, e}));
            model.litCounts.push_back(lit);
        }
        energyModels_.push_back(std::move(model));
    }

    sharedNet_ = std::make_unique<nn::Sequential>();
    sharedNet_->add(std::make_unique<nn::Conv2dLayer>(1, 8, 3, *rng_,
                                                      1, 1));
    sharedNet_->add(std::make_unique<nn::ActivationLayer>(
        nn::Activation::Relu));
    sharedNet_->add(std::make_unique<nn::Conv2dLayer>(8, 8, 3, *rng_,
                                                      1, 1));
    sharedNet_->add(std::make_unique<nn::ActivationLayer>(
        nn::Activation::Relu));

    concepts_ = {
        {"cross_pair",
         {ConceptShape::VerticalLine, ConceptShape::HorizontalLine}},
        {"twin_lines",
         {ConceptShape::VerticalLine, ConceptShape::VerticalLine}},
        {"boxed_line",
         {ConceptShape::Rectangle, ConceptShape::VerticalLine}},
        {"corner", {ConceptShape::LShape}},
    };
}

void
ZerocWorkload::reseedEpisodes(uint64_t seed)
{
    // Only the scene stream restarts (salted like VSAIT's); energy
    // models and the shared net are untouched.
    rng_ = std::make_unique<util::Rng>(seed ^ 0xE9150DE5ULL);
}

uint64_t
ZerocWorkload::storageBytes() const
{
    uint64_t bytes = sharedNet_ ? sharedNet_->paramBytes() : 0;
    for (const auto &model : energyModels_) {
        for (const auto &k : model.kernels)
            bytes += k.bytes();
    }
    return bytes;
}

int
ZerocWorkload::classifyScene(const Tensor &scene)
{
    int64_t s = config_.imageSize;
    Tensor residual = scene.clone();

    std::vector<Detection> detections;
    const int max_instances = 3;
    for (int round = 0; round < max_instances; round++) {
        Detection best{};
        best.normEnergy = -1.0f;

        // ---- Neural: the full energy-model ensemble over the
        // current residual (plus the shared trunk on round 0).
        std::vector<std::pair<size_t, Tensor>> energy_maps;
        {
            PhaseScope neural(Phase::Neural, "zeroc/energy_maps");
            Tensor input = residual.reshaped({1, 1, s, s});
            if (round == 0) {
                Tensor shared = sharedNet_->forward(
                    tensor::transfer(input, "h2d"));
                (void)shared;
            }
            for (size_t m = 0; m < energyModels_.size(); m++) {
                for (const auto &kernel : energyModels_[m].kernels) {
                    energy_maps.emplace_back(
                        m, tensor::conv2d(input, kernel, Tensor()));
                }
            }
        }

        // ---- Symbolic: ground each concept by extracting the
        // energy peak of each model's map bank (one dispatched
        // peak-extraction op per concept model).
        {
            PhaseScope symbolic(Phase::Symbolic, "zeroc/grounding");
            size_t kernels_per_model =
                energyModels_[0].kernels.size();
            for (size_t m = 0; m < energyModels_.size(); m++) {
                const auto &model = energyModels_[m];
                ScopedOp op("peak_extract", OpCategory::Other);
                double scanned = 0.0;
                for (size_t k = 0; k < kernels_per_model; k++) {
                    const Tensor &energy =
                        energy_maps[m * kernels_per_model + k]
                            .second;
                    int64_t e = model.kernels[k].size(2);
                    float lit = model.litCounts[k];

                    auto data = energy.data();
                    float peak = data[0];
                    int64_t arg = 0;
                    for (size_t i = 1; i < data.size(); i++) {
                        if (data[i] > peak) {
                            peak = data[i];
                            arg = static_cast<int64_t>(i);
                        }
                    }
                    scanned += static_cast<double>(data.size());

                    // Normalized match quality; absolute evidence
                    // favours larger templates on ties.
                    float norm = lit > 0.0f ? peak / lit : 0.0f;
                    float abs_energy =
                        peak / std::sqrt(std::max(lit, 1.0f));
                    int64_t ow = s - e + 1;
                    bool better =
                        norm >= matchThreshold &&
                        (best.normEnergy < matchThreshold ||
                         abs_energy > best.absEnergy);
                    if (better || (best.normEnergy < 0.0f &&
                                   norm > best.normEnergy)) {
                        best = {model.shape, e, arg / ow, arg % ow,
                                norm, abs_energy};
                    }
                }
                op.setFlops(scanned);
                op.setBytesRead(scanned * 4.0);
                op.setBytesWritten(8.0);
            }
        }

        if (best.normEnergy < matchThreshold)
            break;

        // ---- Symbolic: commit the grounding and explain away its
        // pixels so remaining instances become visible.
        {
            PhaseScope symbolic(Phase::Symbolic, "zeroc/grounding");
            ScopedOp op("explain_away", OpCategory::Other);
            PlacedConcept placed{best.shape, best.row, best.col,
                                 best.extent};
            Tensor stamp = data::renderConcept(placed, s);
            auto sp = stamp.data();
            auto rp = residual.data();
            for (size_t i = 0; i < rp.size(); i++) {
                if (sp[i] > 0.5f)
                    rp[i] = 0.0f;
            }
            op.setFlops(static_cast<double>(rp.size()));
            op.setBytesRead(static_cast<double>(rp.size()) * 8.0);
            op.setBytesWritten(static_cast<double>(rp.size()) * 4.0);
            detections.push_back(best);
        }
    }

    // ---- Symbolic: verify pairwise relations between groundings
    // (the concept-graph edges), then match the detected multiset
    // plus relations against each hierarchical concept graph.
    int relation_hits = 0;
    {
        PhaseScope symbolic(Phase::Symbolic, "zeroc/graph_match");
        for (size_t a = 0; a < detections.size(); a++) {
            for (size_t b = a + 1; b < detections.size(); b++) {
                ScopedOp op("relation_check", OpCategory::Other);
                const Detection &da = detections[a];
                const Detection &db = detections[b];
                bool parallel = da.shape == db.shape;
                bool perpendicular =
                    (da.shape == ConceptShape::VerticalLine &&
                     db.shape == ConceptShape::HorizontalLine) ||
                    (da.shape == ConceptShape::HorizontalLine &&
                     db.shape == ConceptShape::VerticalLine);
                int64_t dr = std::abs(da.row - db.row);
                int64_t dc = std::abs(da.col - db.col);
                bool attached =
                    dr <= std::max(da.extent, db.extent) + 2 &&
                    dc <= std::max(da.extent, db.extent) + 2;
                if (parallel || perpendicular || attached)
                    relation_hits++;
                op.setFlops(16.0);
                op.setBytesRead(64.0);
                op.setBytesWritten(4.0);
            }
        }
    }
    int best_concept = 0;
    {
        PhaseScope symbolic(Phase::Symbolic, "zeroc/graph_match");
        ScopedOp op("graph_match", OpCategory::Other);
        int best_score = std::numeric_limits<int>::min();
        for (size_t c = 0; c < concepts_.size(); c++) {
            std::map<ConceptShape, int> needed;
            for (ConceptShape shape : concepts_[c].constituents)
                needed[shape]++;
            std::map<ConceptShape, int> found;
            for (const auto &det : detections)
                found[det.shape]++;

            int score = 0;
            for (const auto &[shape, want] : needed) {
                int have = found.count(shape) ? found[shape] : 0;
                score += std::min(have, want);       // matched
                score -= std::max(0, want - have);   // missing
            }
            for (const auto &[shape, have] : found) {
                int want = needed.count(shape) ? needed[shape] : 0;
                score -= std::max(0, have - want);   // spurious
            }
            if (score > best_score) {
                best_score = score;
                best_concept = static_cast<int>(c);
            }
        }
        op.setFlops(static_cast<double>(concepts_.size() *
                                        detections.size() +
                                        static_cast<size_t>(
                                            relation_hits) + 1));
        op.setBytesRead(64.0);
        op.setBytesWritten(8.0);
    }
    return best_concept;
}

void
ZerocWorkload::runStage(int, core::EpisodeState &state)
{
    util::panicIf(!rng_, "ZeroC: setUp() not called");
    int correct = 0;
    for (int e = 0; e < config_.episodes; e++) {
        auto truth = static_cast<size_t>(e) % concepts_.size();
        data::ConceptScene scene = data::makeConceptScene(
            concepts_[truth].constituents, config_.imageSize, *rng_);
        if (classifyScene(scene.pixels) ==
            static_cast<int>(truth)) {
            correct++;
        }
    }
    state.score = static_cast<double>(correct) /
                  static_cast<double>(config_.episodes);
}

OpGraph
ZerocWorkload::opGraph() const
{
    OpGraph g;
    auto input = g.addNode("scene_image", Phase::Untagged);
    auto energy = g.addNode("zeroc/energy_maps", Phase::Neural);
    auto ground = g.addNode("zeroc/grounding", Phase::Symbolic);
    auto match = g.addNode("zeroc/graph_match", Phase::Symbolic);
    auto label = g.addNode("concept_label", Phase::Untagged);
    g.addEdge(input, energy);
    g.addEdge(energy, ground);
    g.addEdge(ground, match);
    g.addEdge(match, label);
    return g;
}


} // namespace nsbench::workloads
