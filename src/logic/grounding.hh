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
#include <map>
#include <vector>

#include "logic/bounds.hh"
#include "logic/kb.hh"

namespace nsbench::logic
{

/** The grounded formula graph: atoms, initial bounds, rule instances. */
struct GroundedIndex
{
    /** Atom id per distinct ground atom. */
    std::map<GroundAtom, size_t> atomIds;
    /** Truth bounds at atom creation: certainTrue for base facts. */
    std::vector<TruthBounds> initialBounds;
    /** Body atom ids + head atom id per rule instance. */
    struct Instance
    {
        std::vector<int64_t> body;
        int64_t head = 0;
    };
    /** Instances grouped by rule, in rule order. */
    std::vector<std::vector<Instance>> byRule;

    /** Logical bytes of the graph (bounds + instance id lists). */
    uint64_t graphBytes() const;
};

/**
 * Builds the grounded index: saturates a scratch copy of @p kb, then
 * grounds every rule into formula-graph instances. Instrumented as
 * forward chaining's per-rule ops plus one "formula_grounding" op per
 * rule. Run it inside the caller's symbolic phase scope.
 */
GroundedIndex buildGroundedIndex(const KnowledgeBase &kb);

} // namespace nsbench::logic

#endif // NSBENCH_LOGIC_GROUNDING_HH
