#include "logic/grounding.hh"

#include "core/profiler.hh"
#include "util/logging.hh"

namespace nsbench::logic
{

using core::OpCategory;
using core::ScopedOp;

uint64_t
GroundedIndex::graphBytes() const
{
    uint64_t bytes = initialBounds.size() * sizeof(TruthBounds);
    for (const auto &group : byRule)
        bytes += group.ids.size() * sizeof(int64_t);
    return bytes;
}

GroundedIndex
buildGroundedIndex(const KnowledgeBase &kb)
{
    // Saturate a copy of the facts so the caller's KB stays at its
    // base facts. Saturation only appends rows, so a row below the
    // caller's row count is a base fact.
    GroundedIndex g;
    g.facts = kb.factStore();
    kb.forwardChain(g.facts);

    // Atom id per fact row, -1 until the atom first appears.
    std::vector<std::vector<int32_t>> ids(kb.numPredicates());
    for (size_t p = 0; p < ids.size(); p++)
        ids[p].assign(g.facts.rows(static_cast<PredId>(p)).size(), -1);
    auto atom_id = [&](PredId pred, int32_t row) -> int64_t {
        auto p = static_cast<size_t>(pred);
        int32_t &id = ids[p][static_cast<size_t>(row)];
        if (id < 0) {
            id = static_cast<int32_t>(g.atoms.size());
            g.atoms.push_back({pred, row});
            g.initialBounds.push_back(
                static_cast<size_t>(row) < kb.facts(pred).size()
                    ? TruthBounds::certainTrue()
                    : TruthBounds::unknown());
        }
        return id;
    };

    for (size_t r = 0; r < kb.numRules(); r++) {
        ScopedOp op("formula_grounding", OpCategory::Other);
        const Rule &rule = kb.rules()[r];
        GroundedIndex::Group group{rule.body.size(), {}};
        kb.join(r, g.facts,
                [&](std::span<const ConstId> head,
                    std::span<const int32_t> rows) {
                    for (size_t j = 0; j < rows.size(); j++)
                        group.ids.push_back(
                            atom_id(rule.body[j].predicate, rows[j]));
                    int64_t head_row =
                        g.facts.find(rule.head.predicate, head);
                    util::panicIf(head_row < 0,
                                  "buildGroundedIndex: a head is not "
                                  "a fact after saturation");
                    group.ids.push_back(atom_id(
                        rule.head.predicate,
                        static_cast<int32_t>(head_row)));
                });
        auto instances = static_cast<double>(
            group.ids.size() / (rule.body.size() + 1));
        op.setFlops(instances *
                    static_cast<double>(rule.body.size() + 1));
        op.setBytesRead(instances * 32.0);
        op.setBytesWritten(instances * 16.0);
        g.byRule.push_back(std::move(group));
    }
    return g;
}

} // namespace nsbench::logic
