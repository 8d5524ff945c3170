/**
 * @file
 * The Logic Tensor Network (LTN) workload.
 *
 * Predicates (Smokes, Cancer) are grounded as MLPs over individual
 * feature vectors — the neural half, dominated by MatMul per the
 * paper's Fig. 3a. The symbolic half grounds a fuzzy first-order
 * theory (product real logic with p-mean quantifiers) over the full
 * population and its friendship relation, evaluating the satisfaction
 * of each axiom with element-wise tensor operations. The run score is
 * the aggregated satisfaction of the theory, which is high because
 * the MLP weights are constructed from the class statistics (a
 * trained-network stand-in; see DESIGN.md).
 */

#ifndef NSBENCH_WORKLOADS_LTN_HH
#define NSBENCH_WORKLOADS_LTN_HH

#include <memory>
#include <vector>

#include "core/workload.hh"
#include "data/tabular.hh"
#include "tensor/tensor.hh"

namespace nsbench::workloads
{

/** LTN configuration knobs. */
struct LtnConfig
{
    int people = 160;       ///< Population size.
    int featureDim = 16;    ///< Feature dimensionality.
    int hidden = 64;        ///< Predicate-MLP hidden width.
    int friendsPerPerson = 8;
    int queries = 4;        ///< Theory evaluations per run.
};

/**
 * One LTN instance's full model state: the sampled relational
 * dataset, the friendship indicator matrix, and the constructed
 * predicate-MLP weights. The dataset sampler and the weight
 * initializer consume a single RNG stream, so the pieces are only
 * reproducible together — the bundle is cached whole, pure in
 * (config, model seed), and shared read-only across replicas via the
 * precompute cache.
 */
struct LtnModel
{
    data::RelationalDataset dataset;
    tensor::Tensor friends;
    tensor::Tensor smokesW1, smokesW2, smokesW3;
    tensor::Tensor cancerW1, cancerW2, cancerW3;

    /** Resident bytes of the tensors in the bundle. */
    uint64_t bytes() const;
};

/**
 * End-to-end LTN querying/reasoning on the smokers-friends-cancer
 * theory.
 */
class LtnWorkload : public core::Workload
{
  public:
    LtnWorkload() = default;
    explicit LtnWorkload(const LtnConfig &config) : config_(config) {}

    std::string name() const override { return "LTN"; }
    core::Paradigm
    paradigm() const override
    {
        return core::Paradigm::NeuroUnderSymbolic;
    }
    std::string
    taskDescription() const override
    {
        return "fuzzy-FOL querying on smokers-friends-cancer";
    }

    void setUp(uint64_t seed) override;
    /** run() re-evaluates the fixed theory; nothing to reseed. */
    void reseedEpisodes(uint64_t) override {}
    bool seedSensitive() const override { return false; }
    /** Two stages: neural grounding, then symbolic axiom eval. */
    int stageCount() const override { return 2; }
    core::StageSpec stageSpec(int stage) const override;
    void runStage(int stage, core::EpisodeState &state) override;
    core::OpGraph opGraph() const override;
    uint64_t storageBytes() const override;

    const LtnConfig &config() const { return config_; }

  private:
    LtnConfig config_;
    /** Shared immutable model bundle (possibly cache-served). */
    std::shared_ptr<const LtnModel> model_;

    /** One query's predicate groundings, carried between stages. */
    struct QueryGrounding
    {
        tensor::Tensor smokes;
        tensor::Tensor cancer;
    };

    /** Pipeline handoff: groundings for all of a run's queries. */
    struct EpisodeScratch
    {
        std::vector<QueryGrounding> queries;
    };

    /** Neural: grounds both predicate MLPs over the population. */
    QueryGrounding groundQuery();

    /** Symbolic: evaluates the theory; returns mean satisfaction. */
    double evalAxioms(const QueryGrounding &grounding);
};

} // namespace nsbench::workloads

#endif // NSBENCH_WORKLOADS_LTN_HH
