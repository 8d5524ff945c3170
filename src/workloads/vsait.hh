/**
 * @file
 * The VSA-based image-to-image translation (VSAIT) workload.
 *
 * Neural half: conv feature extraction and a conv generator over the
 * source image. Symbolic half: locality-sensitive hashing of image
 * patches into a random bipolar hyperspace, unbinding the source
 * style and binding the target style, then cleanup against a codebook
 * of target-domain patches to synthesize the translation. The run
 * score is semantic consistency — the fraction of patches whose
 * semantic label survives translation, i.e. the absence of the
 * "semantic flipping" VSAIT exists to prevent.
 */

#ifndef NSBENCH_WORKLOADS_VSAIT_HH
#define NSBENCH_WORKLOADS_VSAIT_HH

#include <memory>
#include <vector>

#include "core/workload.hh"
#include "data/images.hh"
#include "nn/layers.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"
#include "vsa/codebook.hh"

namespace nsbench::workloads
{

/** VSAIT configuration knobs. */
struct VsaitConfig
{
    int64_t imageSize = 32; ///< Edge length in pixels.
    int64_t patch = 4;      ///< Square patch size for hashing.
    int64_t hvDim = 512;    ///< Hyperspace dimension.
    int episodes = 4;       ///< Image pairs translated per run.
};

/**
 * End-to-end VSAIT unpaired translation between the two synthetic
 * texture domains.
 */
class VsaitWorkload : public core::Workload
{
  public:
    VsaitWorkload() = default;
    explicit VsaitWorkload(const VsaitConfig &config)
        : config_(config)
    {}

    std::string name() const override { return "VSAIT"; }
    core::Paradigm
    paradigm() const override
    {
        return core::Paradigm::NeuroPipeSymbolic;
    }
    std::string
    taskDescription() const override
    {
        return "unpaired image translation without semantic flipping";
    }

    void setUp(uint64_t seed) override;
    /** Resets the episode RNG only; convs and projection stay. */
    void reseedEpisodes(uint64_t seed) override;
    /** One fused stage: translate the episode's image pairs. */
    void runStage(int stage, core::EpisodeState &state) override;
    core::OpGraph opGraph() const override;
    uint64_t storageBytes() const override;

    const VsaitConfig &config() const { return config_; }

  private:
    VsaitConfig config_;
    std::unique_ptr<util::Rng> rng_;
    std::unique_ptr<nn::Sequential> extractor_;
    std::unique_ptr<nn::Sequential> generator_;
    tensor::Tensor lshProjection_; ///< [hvDim, patch*patch].

    /** Extracts flattened patches [numPatches, patch*patch]. */
    tensor::Tensor extractPatches(const tensor::Tensor &image) const;

    /** Majority semantic label per patch. */
    std::vector<int> patchLabels(const data::SemanticImage &img) const;

    /** Hashes patch rows into bipolar hypervectors. */
    tensor::Tensor hashPatches(const tensor::Tensor &patches) const;

    double translateOnce();
};

} // namespace nsbench::workloads

#endif // NSBENCH_WORKLOADS_VSAIT_HH
