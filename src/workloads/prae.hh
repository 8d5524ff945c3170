/**
 * @file
 * The Probabilistic Abduction and Execution (PrAE) learner workload.
 *
 * Shares NVSA's neural perception frontend, but the symbolic backend
 * performs the computation NVSA's vector algebra replaces: a scene
 * inference engine aggregates object-level distributions into panel
 * PMFs, rule abduction exhaustively scores every candidate rule by
 * summing joint probabilities over all (a1, a2) value pairs, and the
 * execution engine generates the answer PMF by posterior-weighted
 * exhaustive enumeration. The paper contrasts exactly these two
 * backends (Sec. III-D vs III-H).
 */

#ifndef NSBENCH_WORKLOADS_PRAE_HH
#define NSBENCH_WORKLOADS_PRAE_HH

#include <array>
#include <memory>
#include <vector>

#include "core/workload.hh"
#include "data/raven.hh"
#include "workloads/perception.hh"

namespace nsbench::workloads
{

/** PrAE configuration knobs. */
struct PraeConfig
{
    int grid = 2;     ///< RPM panel grid size.
    int episodes = 6; ///< Puzzles per profiled run.
};

/**
 * The abduction engine's enumerated rule tables: candidate rules
 * plus predicted-value maps per attribute. Pure in the grid size
 * alone (no seed enters their construction); built at setUp.
 */
struct PraeRuleTables
{
    struct Table
    {
        std::vector<data::AttributeRule> rules;
        /** apply[r][a1 * domain + a2] = a3 or -1. */
        std::vector<std::vector<int>> apply;
        int domain = 0;
    };
    std::array<Table, data::numAttributes> tables;
};

/**
 * End-to-end PrAE: perception -> scene inference -> probabilistic
 * abduction -> probabilistic execution -> answer selection.
 */
class PraeWorkload : public core::Workload
{
  public:
    PraeWorkload() = default;
    explicit PraeWorkload(const PraeConfig &config) : config_(config) {}

    std::string name() const override { return "PrAE"; }
    core::Paradigm
    paradigm() const override
    {
        return core::Paradigm::NeuroPipeSymbolic;
    }
    std::string
    taskDescription() const override
    {
        return "spatial-temporal reasoning via probabilistic "
               "abduction/execution";
    }

    void setUp(uint64_t seed) override;
    /** Resets the puzzle generator only; rule tables stay. */
    void reseedEpisodes(uint64_t seed) override;
    /** Two stages: neural perception, then symbolic abduction. */
    int stageCount() const override { return 2; }
    core::StageSpec stageSpec(int stage) const override;
    void runStage(int stage, core::EpisodeState &state) override;
    core::OpGraph opGraph() const override;
    uint64_t storageBytes() const override;

    const PraeConfig &config() const { return config_; }

  private:
    PraeConfig config_;
    std::unique_ptr<data::RavenGenerator> generator_;
    std::unique_ptr<RavenPerception> perception_;
    /** Rule tables for the configured grid, built at setUp. */
    PraeRuleTables ruleTables_;

    /** Pipeline handoff: all of one episode's perceived puzzles. */
    struct EpisodeScratch
    {
        std::vector<PerceivedPuzzle> puzzles;
    };

    /**
     * Symbolic backend (mutates the beliefs during scene inference);
     * true when the selected candidate is the answer.
     */
    bool reasonPuzzle(PerceivedPuzzle &perceived);
};

} // namespace nsbench::workloads

#endif // NSBENCH_WORKLOADS_PRAE_HH
