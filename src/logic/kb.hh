/**
 * @file
 * First-order knowledge base with Horn rules and forward chaining.
 *
 * Plays the role of the LUBM/TPTP-style benchmark substrate behind the
 * LNN workload: facts are ground atoms over named predicates and
 * constants, rules are Horn clauses with variables, and saturation is
 * bottom-up forward chaining. Rule grounding is instrumented as an
 * "Others"-category symbolic operator, which is exactly where the
 * paper's logic workloads spend their symbolic time.
 */

#ifndef NSBENCH_LOGIC_KB_HH
#define NSBENCH_LOGIC_KB_HH

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace nsbench::logic
{

/** Predicate handle. */
using PredId = int32_t;
/** Constant handle. */
using ConstId = int32_t;
/** Rule-local variable handle. */
using VarId = int32_t;

/** A term in a rule atom: either a variable or a constant. */
struct Term
{
    bool isVariable = false;
    int32_t id = 0;

    /** Makes a variable term. */
    static Term var(VarId v) { return {true, v}; }

    /** Makes a constant term. */
    static Term constant(ConstId c) { return {false, c}; }
};

/** An atom that may contain variables (rule component). */
struct Atom
{
    PredId predicate = 0;
    std::vector<Term> args;
};

/** A fully ground atom (fact). */
struct GroundAtom
{
    PredId predicate = 0;
    std::vector<ConstId> args;
};

/** A Horn rule: head :- body_1, ..., body_n. */
struct Rule
{
    Atom head;
    std::vector<Atom> body;
    std::string name; ///< Optional label for reports.
};

/** One predicate's facts: packed argument rows in insertion order. */
struct FactRows
{
    const ConstId *args = nullptr;
    size_t arity = 0;
    size_t count = 0;

    /** Number of facts. */
    size_t size() const { return count; }
    /** The arguments of the fact in row @p row. */
    std::span<const ConstId>
    operator[](size_t row) const
    {
        return {args + row * arity, arity};
    }
};

/**
 * Every predicate's facts, packed with arity stride, plus an
 * open-addressed membership table of (predicate, row) slots. Rows are
 * only appended, so a row number names a fact for good.
 */
class FactStore
{
  public:
    /** Adds the next predicate id, with no facts. */
    void
    addPredicate(int arity)
    {
        buckets_.push_back({static_cast<size_t>(arity), 0, {}});
    }

    /** Appends a new fact (arity unchecked); false when it is known. */
    bool insert(PredId pred, std::span<const ConstId> args);

    /** The row of a fact, or -1 (also for a bad predicate or arity). */
    int64_t find(PredId pred, std::span<const ConstId> args) const;

    /** One predicate's facts. */
    FactRows
    rows(PredId pred) const
    {
        const Bucket &bucket = buckets_.at(static_cast<size_t>(pred));
        return {bucket.args.data(), bucket.arity, bucket.rows};
    }

  private:
    struct Bucket
    {
        size_t arity = 0;
        size_t rows = 0; ///< Kept apart: arity 0 packs no arguments.
        std::vector<ConstId> args;
    };
    /** One membership slot; pred < 0 marks it empty. */
    struct Slot
    {
        PredId pred = -1;
        int32_t row = 0;
    };

    /** The fact's slot, else the empty slot ending its probe run. */
    size_t probe(PredId pred, std::span<const ConstId> args) const;

    std::vector<Bucket> buckets_;
    std::vector<Slot> slots_ = std::vector<Slot>(16); ///< Power of 2.
    size_t count_ = 0;
};

/**
 * The knowledge base: symbol tables, fact store, rules, and the
 * forward-chaining engine.
 */
class KnowledgeBase
{
  public:
    /** Interns a predicate; re-registering the same name is an error. */
    PredId addPredicate(const std::string &name, int arity);

    /** Interns a constant. */
    ConstId addConstant(const std::string &name);

    /** Number of registered predicates. */
    size_t numPredicates() const { return predicateNames_.size(); }

    /** Number of registered constants. */
    size_t numConstants() const { return constants_.size(); }

    /** Declared arity of a predicate. */
    int
    arity(PredId pred) const
    {
        return static_cast<int>(facts(pred).arity);
    }

    /** Predicate name lookup. */
    const std::string &predicateName(PredId pred) const;

    /** Constant name lookup. */
    const std::string &constantName(ConstId c) const;

    /**
     * Asserts a fact. Returns true when the fact is new. The arity
     * must match the predicate declaration.
     */
    bool addFact(const GroundAtom &fact);

    /** True when the fact is currently known. */
    bool
    hasFact(const GroundAtom &fact) const
    {
        return facts_.find(fact.predicate, fact.args) >= 0;
    }

    /** All known facts of one predicate. */
    FactRows facts(PredId pred) const { return facts_.rows(pred); }

    /** The fact store; forwardChain(FactStore &) saturates a copy. */
    const FactStore &factStore() const { return facts_; }

    /** Adds a Horn rule. Head variables must appear in the body. */
    void addRule(Rule rule);

    /** Number of rules. */
    size_t numRules() const { return rules_.size(); }

    /**
     * Saturates the fact store under the rules (bottom-up, semi-naive
     * is not required at our scales). Instrumented per rule per round.
     *
     * @param max_rounds Safety cap on fixpoint iterations.
     * @return Number of newly derived facts.
     */
    size_t
    forwardChain(size_t max_rounds = 64)
    {
        return forwardChain(facts_, max_rounds);
    }

    /** Saturates @p facts, a copy of factStore(), likewise. */
    size_t forwardChain(FactStore &facts, size_t max_rounds = 64) const;

    /**
     * Runs one rule's nested-loop join over @p facts: body atoms left
     * to right, rows in insertion order. Calls visit(head, rows) per
     * match with the head's arguments and each body atom's row.
     * @return The rows scanned: the unification attempts.
     */
    template <class Visit>
    size_t join(size_t rule, const FactStore &facts,
                Visit &&visit) const;

    /** The rule set, in addition order. */
    const std::vector<Rule> &rules() const { return rules_; }

    /** Approximate memory footprint of the fact store, in bytes. */
    uint64_t factBytes() const;

  private:
    /**
     * A rule compiled for the join: one slot per variable and per
     * constant. A variable's first mention binds its slot from the
     * row, and later ones (in the same atom too) check the row. Which
     * slots are bound at each atom is fixed, so no undo is needed.
     */
    struct CompiledRule
    {
        struct Arg
        {
            bool bind = false;
            uint32_t slot = 0;
        };
        /** One body atom, with one Arg per column. */
        struct Step
        {
            PredId predicate = 0;
            std::vector<Arg> args;
        };
        std::vector<Step> body;
        PredId head = 0;
        std::vector<uint32_t> headSlots;
        std::vector<ConstId> slots; ///< Initial values: the constants.
    };

    std::vector<std::string> predicateNames_;
    std::vector<std::string> constants_;
    std::map<std::string, ConstId> constantIds_;
    FactStore facts_;
    std::vector<Rule> rules_;
    std::vector<CompiledRule> compiled_;
};

template <class Visit>
size_t
KnowledgeBase::join(size_t rule, const FactStore &facts,
                    Visit &&visit) const
{
    const CompiledRule &c = compiled_.at(rule);
    std::vector<ConstId> slots = c.slots, head(c.headSlots.size());
    std::vector<int32_t> rows(c.body.size());
    // Depth-first over the body atoms; no allocation per attempt.
    auto from = [&](auto &self, size_t depth) -> size_t {
        if (depth == c.body.size()) {
            for (size_t i = 0; i < head.size(); i++)
                head[i] = slots[c.headSlots[i]];
            visit(std::span<const ConstId>(head),
                  std::span<const int32_t>(rows));
            return 0;
        }
        const CompiledRule::Step &step = c.body[depth];
        FactRows facts_in = facts.rows(step.predicate);
        size_t attempts = facts_in.size();
        for (size_t r = 0; r < facts_in.size(); r++) {
            std::span<const ConstId> fact = facts_in[r];
            bool match = true;
            for (size_t i = 0; match && i < fact.size(); i++) {
                const CompiledRule::Arg &arg = step.args[i];
                if (arg.bind)
                    slots[arg.slot] = fact[i];
                else
                    match = slots[arg.slot] == fact[i];
            }
            if (match) {
                rows[depth] = static_cast<int32_t>(r);
                attempts += self(self, depth + 1);
            }
        }
        return attempts;
    };
    return from(from, 0);
}

} // namespace nsbench::logic

#endif // NSBENCH_LOGIC_KB_HH
