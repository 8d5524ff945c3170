/**
 * @file
 * The Neuro-Vector-Symbolic Architecture (NVSA) workload.
 *
 * Neural frontend: the shared RAVEN perception ConvNet producing
 * per-attribute PMFs. Symbolic backend: PMFs map into a holographic
 * vector space built from fractional-power (circular-convolution
 * power) atoms, rule detection and execution become algebraic
 * operations on those hypervectors — binding via circular
 * convolution, bundling, permutation, cleanup — replacing PrAE's
 * exhaustive probability sums. This is the workload whose symbolic
 * share dominates end-to-end runtime in the paper (92.1% on the RTX
 * 2080 Ti) and whose PMF<->VSA transforms exhibit the Fig. 5
 * sparsity.
 */

#ifndef NSBENCH_WORKLOADS_NVSA_HH
#define NSBENCH_WORKLOADS_NVSA_HH

#include <array>
#include <memory>
#include <vector>

#include "core/workload.hh"
#include "data/raven.hh"
#include "vsa/codebook.hh"
#include "vsa/quantized.hh"
#include "workloads/perception.hh"

namespace nsbench::workloads
{

/** NVSA configuration knobs. */
struct NvsaConfig
{
    int grid = 2;           ///< RPM panel grid size (Fig. 2c axis).
    int64_t hvDim = 2048;   ///< Hypervector dimension (power of two).
    int episodes = 3;       ///< Puzzles solved per profiled run.
    /** Store the combination codebook at INT8 (Recommendation 3). */
    bool quantizedComboBook = false;
};

/**
 * The seed-invariant symbolic model state of one NVSA instance: the
 * per-attribute fractional-power codebooks, their convolution bases,
 * and the (type x size x color) combination codebook. Pure in
 * (config, model seed) — the codebook RNG stream is independent of
 * the puzzle and perception streams — so one bundle is shareable
 * read-only across replicas and runs via the precompute cache.
 */
struct NvsaCodebooks
{
    /** One fractional-power codebook per attribute. */
    std::vector<std::unique_ptr<vsa::Codebook>> attributeBooks;
    /** Convolution base per attribute. */
    std::vector<tensor::Tensor> bases;
    /** Bound-product codebook over (type,size,color) combinations. */
    std::unique_ptr<vsa::Codebook> comboBook;
    /** Optional INT8 mirror of the combination codebook. */
    std::unique_ptr<vsa::QuantizedCodebook> quantizedCombo;

    /** Resident bytes of every codebook and base. */
    uint64_t bytes() const;
};

/**
 * End-to-end NVSA: perception -> PMF-to-VSA -> algebraic rule
 * detection -> rule execution -> VSA-to-PMF -> answer selection.
 */
class NvsaWorkload : public core::Workload
{
  public:
    NvsaWorkload() = default;
    explicit NvsaWorkload(const NvsaConfig &config) : config_(config) {}

    std::string name() const override { return "NVSA"; }
    core::Paradigm
    paradigm() const override
    {
        return core::Paradigm::NeuroPipeSymbolic;
    }
    std::string
    taskDescription() const override
    {
        return "Raven's Progressive Matrices abstract reasoning";
    }

    void setUp(uint64_t seed) override;
    /** Resets the puzzle generator only; codebooks and weights stay. */
    void reseedEpisodes(uint64_t seed) override;
    /** Two stages: neural perception, then symbolic reasoning. */
    int stageCount() const override { return 2; }
    core::StageSpec stageSpec(int stage) const override;
    void runStage(int stage, core::EpisodeState &state) override;
    core::OpGraph opGraph() const override;
    uint64_t storageBytes() const override;

    /** Config access for benches. */
    const NvsaConfig &config() const { return config_; }

  private:
    NvsaConfig config_;
    std::unique_ptr<data::RavenGenerator> generator_;
    std::unique_ptr<RavenPerception> perception_;
    /** Shared immutable codebook bundle (possibly cache-served). */
    std::shared_ptr<const NvsaCodebooks> books_;

    /** Pipeline handoff: all of one episode's perceived puzzles. */
    struct EpisodeScratch
    {
        std::vector<PerceivedPuzzle> puzzles;
    };

    /** Encodes one panel's PMFs into attribute hypervectors. */
    std::array<tensor::Tensor, data::numAttributes>
    encodePanel(const PanelBelief &belief, bool record_sparsity);

    /** Symbolic backend over perceived beliefs; true when correct. */
    bool reasonPuzzle(const PerceivedPuzzle &perceived);
};

} // namespace nsbench::workloads

#endif // NSBENCH_WORKLOADS_NVSA_HH
