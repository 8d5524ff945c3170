/**
 * @file
 * Shared neural perception frontend for the RPM workloads.
 *
 * NVSA and PrAE both start from a ConvNet that maps a panel image to
 * per-attribute probability mass functions. We cannot ship trained
 * PyTorch weights, so the frontend combines (a) a real ConvNet forward
 * pass — providing the paper's neural compute profile — with (b) a
 * template-matching estimator that extracts the attributes from the
 * rendered image and calibrates the PMFs, standing in for the trained
 * network's accuracy (see DESIGN.md, substitutions). The two
 * workloads also share the per-puzzle perception step and the final
 * answer selection defined at the bottom of this file.
 */

#ifndef NSBENCH_WORKLOADS_PERCEPTION_HH
#define NSBENCH_WORKLOADS_PERCEPTION_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/raven.hh"
#include "nn/layers.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"

namespace nsbench::workloads
{

/** Threshold separating lit pixels from background. */
inline constexpr float litThreshold = 0.02f;

/**
 * Lit-pixel bitmask of a size x size window whose rows start @p pitch
 * floats apart: bit y * size + x is set when pixel (y, x) exceeds
 * litThreshold.
 */
std::vector<uint64_t> litMask(const float *pixels, int64_t pitch,
                              int64_t size);

/**
 * Intersection over union of two equal-length lit masks: the pixel
 * counts popcount(a AND b) / popcount(a OR b), or 0 when both are
 * empty.
 */
float maskIoU(const std::vector<uint64_t> &a,
              const std::vector<uint64_t> &b);

/** Per-attribute PMFs for one perceived panel. */
struct PanelBelief
{
    /** pmfs[a] is a rank-1 tensor over attributeDomain(a, grid). */
    std::array<tensor::Tensor, data::numAttributes> pmfs;

    /**
     * Per-occupied-cell type and size PMFs, in cell scan order. The
     * PrAE scene-inference engine aggregates these object-level
     * distributions itself; NVSA consumes the panel-level pmfs.
     */
    std::vector<std::array<tensor::Tensor, 2>> cellBeliefs;
};

/**
 * The perception frontend.
 */
class RavenPerception
{
  public:
    /**
     * @param grid Panel grid size the frontend is built for.
     * @param seed Weight-initialization seed.
     */
    RavenPerception(int grid, uint64_t seed);

    /**
     * Perceives one panel image: runs the ConvNet trunk and the
     * template estimator, returning calibrated attribute PMFs. All
     * tensor work reports to the global profiler under the current
     * phase.
     */
    PanelBelief perceive(const tensor::Tensor &image);

    /**
     * Batched perception: one ConvNet forward over all panels (the
     * way a deployed frontend batches an RPM's sixteen panels),
     * followed by per-panel template estimation.
     */
    std::vector<PanelBelief>
    perceiveBatch(const std::vector<tensor::Tensor> &images);

    /** Bytes of ConvNet parameters plus template storage. */
    uint64_t storageBytes() const;

  private:
    int grid_;
    std::unique_ptr<nn::Sequential> trunk_;
    /** Rendered cell templates per (type, size), at panel resolution:
     *  the stored model state that storageBytes() counts. */
    std::vector<tensor::Tensor> templates_;
    /** Lit-pixel bitmask of each template, what matchCell reads. */
    std::vector<std::vector<uint64_t>> templateMasks_;
    data::RavenGenerator templateRenderer_;

    /**
     * Template-matching estimate of (type, size) for one cell: the
     * IoU of the cell's lit-pixel bitmask with each template's.
     */
    void matchCell(const std::vector<uint64_t> &cell_mask,
                   tensor::Tensor &type_scores,
                   tensor::Tensor &size_scores) const;

    /** Template-path estimation for one image (no trunk forward). */
    PanelBelief estimate(const tensor::Tensor &image);
};

/**
 * Perception output for one RPM puzzle: the neural stage's product,
 * carried to the symbolic stage together with the answer key.
 */
struct PerceivedPuzzle
{
    std::array<PanelBelief, 8> context;
    std::vector<PanelBelief> candidates;
    int answerIndex = 0;
};

/**
 * Neural frontend for one puzzle, inside a neural PhaseScope labeled
 * @p region: renders the 8 context and then the 8 candidate panels
 * with @p renderer and perceives all 16 in one perceiveBatch call.
 */
PerceivedPuzzle perceivePuzzle(const data::RpmPuzzle &puzzle,
                               const data::RavenGenerator &renderer,
                               RavenPerception &perception,
                               const std::string &region);

/**
 * Answer selection by probabilistic matching, inside a symbolic
 * PhaseScope labeled @p region: the candidate maximizing the sum over
 * attributes of log(dot(predicted[a], candidate.pmfs[a]) + 1e-6). The
 * first candidate wins a tie.
 */
int selectAnswer(
    const std::array<tensor::Tensor, data::numAttributes> &predicted,
    const std::vector<PanelBelief> &candidates,
    const std::string &region);

} // namespace nsbench::workloads

#endif // NSBENCH_WORKLOADS_PERCEPTION_HH
