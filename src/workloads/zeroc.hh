/**
 * @file
 * The Zero-shot Concept recognition (ZeroC) workload.
 *
 * Each primitive concept carries an energy-based model — here a bank
 * of matched-filter convolution kernels over several extents, plus a
 * shared conv stack — evaluated as a large ensemble over the input
 * scene (the memory-heavy neural half the paper observes for ZeroC).
 * Hierarchical concepts are graphs whose nodes are primitive concepts
 * and whose edges are relations; zero-shot classification grounds
 * each graph against the energy maps and checks the relational
 * constraints symbolically.
 */

#ifndef NSBENCH_WORKLOADS_ZEROC_HH
#define NSBENCH_WORKLOADS_ZEROC_HH

#include <memory>
#include <string>
#include <vector>

#include "core/workload.hh"
#include "data/images.hh"
#include "nn/layers.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"

namespace nsbench::workloads
{

/** ZeroC configuration knobs. */
struct ZerocConfig
{
    int64_t imageSize = 32; ///< Scene edge length.
    int episodes = 6;       ///< Scenes classified per run.
};

/**
 * End-to-end ZeroC cross-domain concept classification.
 */
class ZerocWorkload : public core::Workload
{
  public:
    ZerocWorkload() = default;
    explicit ZerocWorkload(const ZerocConfig &config)
        : config_(config)
    {}

    std::string name() const override { return "ZeroC"; }
    core::Paradigm
    paradigm() const override
    {
        return core::Paradigm::NeuroBracketSymbolic;
    }
    std::string
    taskDescription() const override
    {
        return "zero-shot hierarchical concept classification";
    }

    void setUp(uint64_t seed) override;
    /** Resets the scene RNG only; energy models and net stay. */
    void reseedEpisodes(uint64_t seed) override;
    /** One fused stage: generate and classify the episode's scenes. */
    void runStage(int stage, core::EpisodeState &state) override;
    core::OpGraph opGraph() const override;
    uint64_t storageBytes() const override;

    const ZerocConfig &config() const { return config_; }

  private:
    ZerocConfig config_;
    std::unique_ptr<util::Rng> rng_;

    /** Matched-filter kernels per (shape, extent). */
    struct EnergyModel
    {
        data::ConceptShape shape;
        std::vector<tensor::Tensor> kernels; ///< [1,1,e,e] each.
        std::vector<float> litCounts;        ///< Lit pixels per kernel.
    };
    std::vector<EnergyModel> energyModels_;
    std::unique_ptr<nn::Sequential> sharedNet_;

    /** One hierarchical concept graph. */
    struct HierarchicalConcept
    {
        std::string name;
        std::vector<data::ConceptShape> constituents;
    };
    std::vector<HierarchicalConcept> concepts_;

    /** Classifies one scene; returns the concept index. */
    int classifyScene(const tensor::Tensor &scene);
};

} // namespace nsbench::workloads

#endif // NSBENCH_WORKLOADS_ZEROC_HH
