/**
 * @file
 * The Logical Neural Network (LNN) workload.
 *
 * LNN assigns a neuron to every grounded atom and formula, carries
 * [lower, upper] truth bounds instead of activations, and runs
 * bidirectional (upward/downward) inference passes until the bounds
 * stop moving. The neural half is the vectorized weighted-Lukasiewicz
 * evaluation of formula neurons over all groundings (element-wise
 * tensor ops plus heavy gather/scatter movement — the paper's Fig. 3a
 * observation for LNN); the symbolic half is rule grounding over a
 * LUBM-like knowledge base plus the per-instance truth-bound
 * propagation logic.
 */

#ifndef NSBENCH_WORKLOADS_LNN_HH
#define NSBENCH_WORKLOADS_LNN_HH

#include <memory>
#include <vector>

#include "core/workload.hh"
#include "data/kbgen.hh"
#include "logic/bounds.hh"
#include "logic/grounding.hh"

namespace nsbench::workloads
{

/** LNN configuration knobs. */
struct LnnConfig
{
    int departments = 4;        ///< KB scale.
    int professorsPerDept = 4;
    int studentsPerDept = 48;
    int coursesPerProf = 2;
    int maxPasses = 8;          ///< Bidirectional inference cap.
};

/**
 * End-to-end LNN theorem proving over the university ontology.
 */
class LnnWorkload : public core::Workload
{
  public:
    LnnWorkload() = default;
    explicit LnnWorkload(const LnnConfig &config) : config_(config) {}

    std::string name() const override { return "LNN"; }
    core::Paradigm
    paradigm() const override
    {
        return core::Paradigm::NeuroSymbolicToNeuro;
    }
    std::string
    taskDescription() const override
    {
        return "truth-bound theorem proving on a university KB";
    }

    void setUp(uint64_t seed) override;
    /** run() re-evaluates the KB built at setUp(); nothing to reseed. */
    void reseedEpisodes(uint64_t) override {}
    bool seedSensitive() const override { return false; }
    /** Two stages: symbolic grounding, then bidirectional passes. */
    int stageCount() const override { return 2; }
    core::StageSpec stageSpec(int stage) const override;
    void runStage(int stage, core::EpisodeState &state) override;
    core::OpGraph opGraph() const override;
    uint64_t storageBytes() const override;

    const LnnConfig &config() const { return config_; }

  private:
    LnnConfig config_;

    /**
     * Grounding output carried into the inference stage: the index
     * plus this episode's mutable neuron state.
     */
    struct GroundState
    {
        logic::GroundedIndex index;
        std::vector<logic::TruthBounds> bounds;
        uint64_t graphBytes = 0;
    };

    /** Symbolic grounding: builds the index. */
    GroundState groundKb();

    /** Bidirectional passes over @p gs, then recall x precision. */
    double inferAndScore(GroundState &gs);

    std::unique_ptr<data::UniversityKb> university_;
    /** The KB's facts saturated at setUp(): what a proof must find. */
    logic::FactStore truth_;
};

} // namespace nsbench::workloads

#endif // NSBENCH_WORKLOADS_LNN_HH
