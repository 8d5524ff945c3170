/**
 * @file
 * Grounded formula-graph index over a saturated knowledge base.
 *
 * This is the LNN workload's symbolic front half: the saturation,
 * the atom-id assignment and the per-rule instance lists. LNN builds
 * it on every run — grounding is half of the characterized workload
 * — and its inference copies initialBounds into the episode's
 * mutable neuron state, reading everything else in place.
 */

#ifndef NSBENCH_LOGIC_GROUNDING_HH
#define NSBENCH_LOGIC_GROUNDING_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "logic/bounds.hh"
#include "logic/kb.hh"

namespace nsbench::logic
{

/** The grounded formula graph: atoms, initial bounds, rule instances. */
struct GroundedIndex
{
    /** The saturated fact store the atoms are rows of. */
    FactStore facts;
    /** (predicate, row) of each atom id, in first-appearance order. */
    std::vector<std::pair<PredId, int32_t>> atoms;
    /** Truth bounds at atom creation: certainTrue for base facts. */
    std::vector<TruthBounds> initialBounds;
    /** One rule's instances, flat. */
    struct Group
    {
        size_t bodySize = 0;
        /** Per instance: bodySize body atom ids, then the head's. */
        std::vector<int64_t> ids;
    };
    /** Instances grouped by rule, in rule order. */
    std::vector<Group> byRule;

    /** Logical bytes of the graph (bounds + instance id lists). */
    uint64_t graphBytes() const;
};

/**
 * Builds the grounded index: saturates a copy of @p kb's facts, then
 * grounds every rule into formula-graph instances. Instrumented as
 * forward chaining's per-rule ops plus one "formula_grounding" op per
 * rule. Run it inside the caller's symbolic phase scope.
 */
GroundedIndex buildGroundedIndex(const KnowledgeBase &kb);

} // namespace nsbench::logic

#endif // NSBENCH_LOGIC_GROUNDING_HH
