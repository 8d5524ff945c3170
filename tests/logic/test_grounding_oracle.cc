/**
 * @file
 * The compiled join against its reference: a self-contained copy of
 * the map-based unification it replaced (matchBody,
 * enumerateGroundings and buildGroundedIndex over std::map bindings
 * and fact indexes). On university KBs and on seeded random KBs with
 * random rules, both sides must derive the same facts in the same
 * order, leave the same rule_ground and formula_grounding records
 * (invocations, FLOPs, bytes), and build the same grounded index:
 * the same atoms in the same order, the same initial bounds and the
 * same instances.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <tuple>

#include "core/profiler.hh"
#include "data/kbgen.hh"
#include "logic/grounding.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace
{

using namespace nsbench;
using namespace nsbench::logic;
using core::OpCategory;
using core::ScopedOp;

// ---- The reference: the map-based join, kept as it was.

struct RefAtom
{
    PredId predicate = 0;
    std::vector<ConstId> args;

    auto operator<=>(const RefAtom &) const = default;
};

struct RefInstance
{
    std::vector<RefAtom> body;
    RefAtom head;
};

/** Facts bucketed by predicate plus a map index, and the rules. */
class RefKb
{
  public:
    /** Copies @p kb's facts, in insertion order, and its rules. */
    explicit RefKb(const KnowledgeBase &kb)
        : factsByPred_(kb.numPredicates()), rules_(kb.rules())
    {
        for (size_t p = 0; p < kb.numPredicates(); p++) {
            FactRows rows = kb.facts(static_cast<PredId>(p));
            for (size_t r = 0; r < rows.size(); r++)
                addFact({static_cast<PredId>(p),
                         {rows[r].begin(), rows[r].end()}});
        }
    }

    bool
    addFact(RefAtom fact)
    {
        if (factIndex_.count(fact))
            return false;
        factIndex_[fact] = true;
        factsByPred_[static_cast<size_t>(fact.predicate)].push_back(
            fact);
        return true;
    }

    bool
    hasFact(const RefAtom &fact) const
    {
        return factIndex_.count(fact) > 0;
    }

    const std::vector<RefAtom> &
    facts(PredId pred) const
    {
        return factsByPred_.at(static_cast<size_t>(pred));
    }

    size_t numPredicates() const { return factsByPred_.size(); }

    const std::vector<Rule> &rules() const { return rules_; }

    size_t
    forwardChain(size_t max_rounds = 64)
    {
        size_t total_derived = 0;
        for (size_t round = 0; round < max_rounds; round++) {
            size_t round_derived = 0;
            for (const auto &rule : rules_) {
                ScopedOp op("rule_ground", OpCategory::Other);
                std::vector<RefAtom> derived;
                std::map<VarId, ConstId> binding;
                size_t attempts = matchBody(rule, 0, binding, derived);

                double scanned = 0.0;
                for (const auto &atom : rule.body) {
                    scanned += static_cast<double>(
                        facts(atom.predicate).size() *
                        (atom.args.size() + 1) * 4);
                }
                op.setFlops(static_cast<double>(attempts));
                op.setBytesRead(scanned);
                op.setBytesWritten(static_cast<double>(
                    derived.size() * (rule.head.args.size() + 1) * 4));

                for (auto &fact : derived) {
                    if (addFact(std::move(fact)))
                        round_derived++;
                }
            }
            total_derived += round_derived;
            if (round_derived == 0)
                return total_derived;
        }
        util::warn("forwardChain: round cap reached before fixpoint");
        return total_derived;
    }

    std::vector<RefInstance>
    enumerateGroundings(const Rule &rule) const
    {
        std::vector<RefInstance> out;
        std::vector<RefAtom> body_sofar;
        std::map<VarId, ConstId> binding;

        std::function<void(size_t)> descend = [&](size_t next) {
            if (next == rule.body.size()) {
                auto head = groundAtom(rule.head, binding);
                util::panicIf(!head,
                              "enumerateGroundings: unbound head var");
                out.push_back({body_sofar, std::move(*head)});
                return;
            }
            const Atom &atom = rule.body[next];
            for (const auto &fact : facts(atom.predicate)) {
                std::vector<std::pair<VarId, ConstId>> added;
                bool ok = true;
                for (size_t i = 0; i < atom.args.size(); i++) {
                    const Term &t = atom.args[i];
                    ConstId c = fact.args[i];
                    if (!t.isVariable) {
                        if (t.id != c) {
                            ok = false;
                            break;
                        }
                    } else {
                        auto it = binding.find(t.id);
                        if (it == binding.end()) {
                            binding[t.id] = c;
                            added.emplace_back(t.id, c);
                        } else if (it->second != c) {
                            ok = false;
                            break;
                        }
                    }
                }
                if (ok) {
                    body_sofar.push_back(fact);
                    descend(next + 1);
                    body_sofar.pop_back();
                }
                for (const auto &[v, c] : added)
                    binding.erase(v);
            }
        };
        descend(0);
        return out;
    }

  private:
    size_t
    matchBody(const Rule &rule, size_t next,
              std::map<VarId, ConstId> &binding,
              std::vector<RefAtom> &derived) const
    {
        if (next == rule.body.size()) {
            auto fact = groundAtom(rule.head, binding);
            util::panicIf(!fact, "matchBody: unbound head variable");
            if (!hasFact(*fact))
                derived.push_back(std::move(*fact));
            return 0;
        }

        const Atom &atom = rule.body[next];
        size_t attempts = 0;
        for (const auto &fact : facts(atom.predicate)) {
            attempts++;
            std::vector<std::pair<VarId, ConstId>> added;
            bool ok = true;
            for (size_t i = 0; i < atom.args.size(); i++) {
                const Term &t = atom.args[i];
                ConstId c = fact.args[i];
                if (!t.isVariable) {
                    if (t.id != c) {
                        ok = false;
                        break;
                    }
                } else {
                    auto it = binding.find(t.id);
                    if (it == binding.end()) {
                        binding[t.id] = c;
                        added.emplace_back(t.id, c);
                    } else if (it->second != c) {
                        ok = false;
                        break;
                    }
                }
            }
            if (ok)
                attempts += matchBody(rule, next + 1, binding, derived);
            for (const auto &[v, c] : added)
                binding.erase(v);
        }
        return attempts;
    }

    std::optional<RefAtom>
    groundAtom(const Atom &atom,
               const std::map<VarId, ConstId> &binding) const
    {
        RefAtom out;
        out.predicate = atom.predicate;
        for (const auto &t : atom.args) {
            if (!t.isVariable) {
                out.args.push_back(t.id);
            } else {
                auto it = binding.find(t.id);
                if (it == binding.end())
                    return std::nullopt;
                out.args.push_back(it->second);
            }
        }
        return out;
    }

    std::vector<std::vector<RefAtom>> factsByPred_;
    std::map<RefAtom, bool> factIndex_;
    std::vector<Rule> rules_;
};

struct RefIndex
{
    std::map<RefAtom, size_t> atomIds;
    std::vector<TruthBounds> initialBounds;
    struct Instance
    {
        std::vector<int64_t> body;
        int64_t head = 0;
    };
    std::vector<std::vector<Instance>> byRule;
};

RefIndex
refBuildGroundedIndex(const RefKb &kb)
{
    RefKb scratch = kb;
    std::set<RefAtom> base_facts;
    for (size_t p = 0; p < scratch.numPredicates(); p++) {
        for (const auto &fact : scratch.facts(static_cast<PredId>(p)))
            base_facts.insert(fact);
    }

    RefIndex g;
    scratch.forwardChain();

    auto atom_id = [&](const RefAtom &atom) -> int64_t {
        auto it = g.atomIds.find(atom);
        if (it != g.atomIds.end())
            return static_cast<int64_t>(it->second);
        size_t id = g.initialBounds.size();
        g.atomIds.emplace(atom, id);
        g.initialBounds.push_back(base_facts.count(atom)
                                      ? TruthBounds::certainTrue()
                                      : TruthBounds::unknown());
        return static_cast<int64_t>(id);
    };

    for (const auto &rule : scratch.rules()) {
        ScopedOp op("formula_grounding", OpCategory::Other);
        auto instances = scratch.enumerateGroundings(rule);
        std::vector<RefIndex::Instance> group;
        for (const auto &inst : instances) {
            RefIndex::Instance gi;
            for (const auto &atom : inst.body)
                gi.body.push_back(atom_id(atom));
            gi.head = atom_id(inst.head);
            group.push_back(std::move(gi));
        }
        op.setFlops(static_cast<double>(group.size()) *
                    static_cast<double>(rule.body.size() + 1));
        op.setBytesRead(static_cast<double>(group.size()) * 32.0);
        op.setBytesWritten(static_cast<double>(group.size()) * 16.0);
        g.byRule.push_back(std::move(group));
    }
    return g;
}

// ---- Comparison.

/** Invocations, FLOPs, bytes read and written per recorded op. */
using OpRecords =
    std::map<std::string, std::tuple<uint64_t, double, double, double>>;

/** Runs @p work under a fresh profiler and returns its op records. */
template <class Work>
OpRecords
recorded(Work &&work)
{
    core::Profiler profiler;
    core::Profiler::ThreadTargetScope target(profiler);
    work();
    OpRecords records;
    for (const auto &op : profiler.opsByTime())
        records[op.name] = {op.stats.invocations, op.stats.flops,
                            op.stats.bytesRead, op.stats.bytesWritten};
    return records;
}

void
expectSameFacts(const KnowledgeBase &kb, const RefKb &ref)
{
    for (size_t p = 0; p < kb.numPredicates(); p++) {
        FactRows rows = kb.facts(static_cast<PredId>(p));
        const auto &expected = ref.facts(static_cast<PredId>(p));
        ASSERT_EQ(rows.size(), expected.size()) << "predicate " << p;
        for (size_t r = 0; r < rows.size(); r++)
            EXPECT_TRUE(std::ranges::equal(rows[r], expected[r].args))
                << "predicate " << p << " row " << r;
    }
}

void
expectSameIndex(const GroundedIndex &g, const RefIndex &ref)
{
    std::vector<const RefAtom *> ref_atoms(ref.atomIds.size());
    for (const auto &[atom, id] : ref.atomIds)
        ref_atoms[id] = &atom;
    ASSERT_EQ(g.atoms.size(), ref_atoms.size());
    for (size_t id = 0; id < g.atoms.size(); id++) {
        auto [pred, row] = g.atoms[id];
        EXPECT_EQ(pred, ref_atoms[id]->predicate) << "atom " << id;
        EXPECT_TRUE(std::ranges::equal(
            g.facts.rows(pred)[static_cast<size_t>(row)],
            ref_atoms[id]->args))
            << "atom " << id;
    }
    ASSERT_EQ(g.initialBounds.size(), ref.initialBounds.size());
    for (size_t id = 0; id < g.initialBounds.size(); id++) {
        EXPECT_EQ(g.initialBounds[id].lower, ref.initialBounds[id].lower);
        EXPECT_EQ(g.initialBounds[id].upper, ref.initialBounds[id].upper);
    }
    ASSERT_EQ(g.byRule.size(), ref.byRule.size());
    uint64_t ref_bytes = ref.initialBounds.size() * sizeof(TruthBounds);
    for (size_t r = 0; r < g.byRule.size(); r++) {
        std::vector<int64_t> ids;
        for (const auto &inst : ref.byRule[r]) {
            ids.insert(ids.end(), inst.body.begin(), inst.body.end());
            ids.push_back(inst.head);
            ref_bytes += (inst.body.size() + 1) * sizeof(int64_t);
        }
        EXPECT_EQ(g.byRule[r].ids, ids) << "rule " << r;
    }
    EXPECT_EQ(g.graphBytes(), ref_bytes);
}

/**
 * Grounds @p kb on both sides, saturates both, adds @p later to both,
 * grounds again and saturates again, comparing after every step.
 * Returns the forward-chaining rounds of the first saturation.
 */
size_t
expectSameAsReference(KnowledgeBase &kb,
                      const std::vector<GroundAtom> &later)
{
    RefKb ref(kb);
    auto same_grounding = [&] {
        GroundedIndex g;
        RefIndex ref_g;
        EXPECT_EQ(recorded([&] { g = buildGroundedIndex(kb); }),
                  recorded([&] { ref_g = refBuildGroundedIndex(ref); }));
        expectSameIndex(g, ref_g);
    };
    auto same_saturation = [&] {
        size_t derived = 0, ref_derived = 0;
        OpRecords records =
            recorded([&] { derived = kb.forwardChain(); });
        EXPECT_EQ(records,
                  recorded([&] { ref_derived = ref.forwardChain(); }));
        EXPECT_EQ(derived, ref_derived);
        expectSameFacts(kb, ref);
        return std::get<0>(records["rule_ground"]) / kb.numRules();
    };

    same_grounding();
    size_t rounds = same_saturation();
    for (const auto &fact : later)
        EXPECT_EQ(kb.addFact(fact), ref.addFact({fact.predicate,
                                                 fact.args}));
    same_grounding();
    same_saturation();
    return rounds;
}

TEST(GroundingOracle, UniversityKbs)
{
    for (int departments : {1, 3}) {
        for (int professors : {1, 3}) {
            for (int students : {1, 18, 35}) {
                for (int courses : {1, 3}) {
                    for (uint64_t seed : {1, 2}) {
                        SCOPED_TRACE(testing::Message()
                                     << departments << "x" << professors
                                     << "x" << students << "x" << courses
                                     << " seed " << seed);
                        auto u = data::makeUniversityKb(
                            departments, professors, students, courses,
                            seed);
                        // A second-phase fact: one more course taken.
                        std::vector<GroundAtom> later = {
                            {u.takes,
                             {u.kb.facts(u.student)[0][0],
                              u.kb.facts(u.course)[0][0]}}};
                        expectSameAsReference(u.kb, later);
                    }
                }
            }
        }
    }
}

TEST(GroundingOracle, LnnConfigKb)
{
    // The LNN workload's registry config.
    auto u = data::makeUniversityKb(4, 4, 48, 2, 42);
    expectSameAsReference(u.kb, {});
}

/** What the random KBs exercised, summed over all of them. */
struct Coverage
{
    int arity0Body = 0;
    int arity0Head = 0;
    int constantBody = 0;
    int constantHead = 0;
    int repeatedVariable = 0;
    int emptyPredicate = 0;
    int multiRound = 0;
};

/** A random KB and the facts to add after its first saturation. */
struct RandomKb
{
    KnowledgeBase kb;
    std::vector<GroundAtom> later;
};

/**
 * 4-6 constants, 3-6 predicates of arity 0-3 (the first of arity 0)
 * with 0-8 base facts each, and 2-4 rules whose body atoms draw
 * variables from a pool of 4 and constants with probability 1/5.
 * Heads draw from the body's variables or constants. Three random
 * facts come later.
 */
RandomKb
randomKb(util::Rng &rng, Coverage &cov)
{
    RandomKb out;
    KnowledgeBase &kb = out.kb;
    auto pick = [&](size_t lo, size_t hi) {
        return static_cast<int32_t>(rng.uniformInt(
            static_cast<int64_t>(lo), static_cast<int64_t>(hi)));
    };
    int n_constants = pick(4, 6);
    for (int c = 0; c < n_constants; c++)
        kb.addConstant("c" + std::to_string(c));
    int n_preds = pick(3, 6);
    for (int p = 0; p < n_preds; p++)
        kb.addPredicate("p" + std::to_string(p), p == 0 ? 0 : pick(0, 3));
    auto random_fact = [&](PredId pred) {
        GroundAtom fact{pred, {}};
        for (int i = 0; i < kb.arity(pred); i++)
            fact.args.push_back(pick(0, n_constants - 1));
        return fact;
    };
    for (PredId p = 0; p < n_preds; p++) {
        int n_facts = rng.bernoulli(0.2) ? 0 : pick(0, 8);
        for (int f = 0; f < n_facts; f++)
            kb.addFact(random_fact(p));
        cov.emptyPredicate += kb.facts(p).size() == 0;
    }

    int n_rules = pick(2, 4);
    for (int r = 0; r < n_rules; r++) {
        Rule rule;
        std::vector<VarId> body_vars;
        int body_len = pick(1, 3);
        for (int b = 0; b < body_len; b++) {
            Atom atom{pick(0, n_preds - 1), {}};
            std::set<VarId> seen;
            for (int i = 0; i < kb.arity(atom.predicate); i++) {
                if (rng.bernoulli(0.2)) {
                    atom.args.push_back(
                        Term::constant(pick(0, n_constants - 1)));
                    cov.constantBody++;
                    continue;
                }
                VarId v = pick(0, 3);
                cov.repeatedVariable += !seen.insert(v).second;
                atom.args.push_back(Term::var(v));
                body_vars.push_back(v);
            }
            cov.arity0Body += atom.args.empty();
            rule.body.push_back(std::move(atom));
        }
        rule.head.predicate = pick(0, n_preds - 1);
        for (int i = 0; i < kb.arity(rule.head.predicate); i++) {
            if (body_vars.empty() || rng.bernoulli(0.2)) {
                rule.head.args.push_back(
                    Term::constant(pick(0, n_constants - 1)));
                cov.constantHead++;
            } else {
                VarId v = body_vars[static_cast<size_t>(
                    pick(0, body_vars.size() - 1))];
                rule.head.args.push_back(Term::var(v));
            }
        }
        cov.arity0Head += rule.head.args.empty();
        kb.addRule(std::move(rule));
    }
    for (int f = 0; f < 3; f++)
        out.later.push_back(random_fact(pick(0, n_preds - 1)));
    return out;
}

TEST(GroundingOracle, RandomKbsWithRandomRules)
{
    util::Rng rng(2024);
    Coverage cov;
    for (int k = 0; k < 200; k++) {
        SCOPED_TRACE(testing::Message() << "random KB " << k);
        RandomKb random = randomKb(rng, cov);
        cov.multiRound +=
            expectSameAsReference(random.kb, random.later) >= 3;
    }
    // Every case the join must handle came up.
    EXPECT_GT(cov.arity0Body, 0);
    EXPECT_GT(cov.arity0Head, 0);
    EXPECT_GT(cov.constantBody, 0);
    EXPECT_GT(cov.constantHead, 0);
    EXPECT_GT(cov.repeatedVariable, 0);
    EXPECT_GT(cov.emptyPredicate, 0);
    EXPECT_GT(cov.multiRound, 0);
}

} // namespace
