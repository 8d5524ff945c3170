#include "logic/kb.hh"

#include <algorithm>

#include "core/profiler.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace nsbench::logic
{

size_t
FactStore::probe(PredId pred, std::span<const ConstId> args) const
{
    uint64_t hash = static_cast<uint32_t>(pred);
    for (ConstId c : args)
        hash = hash * 0x9e3779b97f4a7c15ULL + static_cast<uint32_t>(c);
    FactRows facts = rows(pred);
    size_t mask = slots_.size() - 1;
    size_t i = util::fmix64(hash) & mask;
    while (slots_[i].pred >= 0 &&
           (slots_[i].pred != pred ||
            !std::ranges::equal(
                facts[static_cast<size_t>(slots_[i].row)], args)))
        i = (i + 1) & mask;
    return i;
}

int64_t
FactStore::find(PredId pred, std::span<const ConstId> args) const
{
    if (static_cast<size_t>(pred) >= buckets_.size() ||
        args.size() != buckets_[static_cast<size_t>(pred)].arity)
        return -1;
    const Slot &slot = slots_[probe(pred, args)];
    return slot.pred < 0 ? -1 : slot.row;
}

bool
FactStore::insert(PredId pred, std::span<const ConstId> args)
{
    size_t i = probe(pred, args);
    if (slots_[i].pred >= 0)
        return false;
    Bucket &bucket = buckets_[static_cast<size_t>(pred)];
    util::panicIf(bucket.rows >= INT32_MAX,
                  "FactStore: row count overflows int32");
    bucket.args.insert(bucket.args.end(), args.begin(), args.end());
    slots_[i] = {pred, static_cast<int32_t>(bucket.rows++)};
    if (2 * ++count_ <= slots_.size())
        return true;
    // Keep the table at most half full.
    slots_.assign(2 * slots_.size(), Slot{});
    for (size_t p = 0; p < buckets_.size(); p++) {
        auto id = static_cast<PredId>(p);
        for (size_t r = 0; r < buckets_[p].rows; r++)
            slots_[probe(id, rows(id)[r])] = {id,
                                              static_cast<int32_t>(r)};
    }
    return true;
}


PredId
KnowledgeBase::addPredicate(const std::string &name, int arity)
{
    util::panicIf(arity < 0, "addPredicate: negative arity");
    util::panicIf(std::ranges::count(predicateNames_, name),
                  "addPredicate: duplicate predicate " + name);
    auto id = static_cast<PredId>(predicateNames_.size());
    predicateNames_.push_back(name);
    facts_.addPredicate(arity);
    return id;
}

ConstId
KnowledgeBase::addConstant(const std::string &name)
{
    auto it = constantIds_.find(name);
    if (it != constantIds_.end())
        return it->second;
    auto id = static_cast<ConstId>(constants_.size());
    constants_.push_back(name);
    constantIds_[name] = id;
    return id;
}

const std::string &
KnowledgeBase::predicateName(PredId pred) const
{
    return predicateNames_.at(static_cast<size_t>(pred));
}

const std::string &
KnowledgeBase::constantName(ConstId c) const
{
    return constants_.at(static_cast<size_t>(c));
}

uint64_t
KnowledgeBase::factBytes() const
{
    uint64_t bytes = 0;
    for (size_t p = 0; p < numPredicates(); p++) {
        FactRows rows = facts(static_cast<PredId>(p));
        bytes += rows.size() * (rows.arity + 1) * sizeof(int32_t);
    }
    return bytes;
}

bool
KnowledgeBase::addFact(const GroundAtom &fact)
{
    util::panicIf(
        static_cast<size_t>(fact.predicate) >= numPredicates(),
        "addFact: unknown predicate");
    util::panicIf(static_cast<int>(fact.args.size()) !=
                      arity(fact.predicate),
                  "addFact: arity mismatch for " +
                      predicateName(fact.predicate));
    return facts_.insert(fact.predicate, fact.args);
}

void
KnowledgeBase::addRule(Rule rule)
{
    util::panicIf(rule.body.empty(), "addRule: empty body");
    CompiledRule compiled;
    auto new_slot = [&compiled](ConstId value) {
        compiled.slots.push_back(value);
        return static_cast<uint32_t>(compiled.slots.size() - 1);
    };
    std::map<VarId, uint32_t> var_slots;
    for (const Atom &atom : rule.body) {
        util::panicIf(static_cast<int>(atom.args.size()) !=
                          arity(atom.predicate),
                      "addRule: body arity mismatch");
        CompiledRule::Step step{atom.predicate, {}};
        for (const Term &t : atom.args) {
            if (!t.isVariable) {
                step.args.push_back({false, new_slot(t.id)});
                continue;
            }
            auto [it, fresh] = var_slots.try_emplace(t.id, 0);
            if (fresh)
                it->second = new_slot(0);
            step.args.push_back({fresh, it->second});
        }
        compiled.body.push_back(std::move(step));
    }
    util::panicIf(static_cast<int>(rule.head.args.size()) !=
                      arity(rule.head.predicate),
                  "addRule: head arity mismatch");
    compiled.head = rule.head.predicate;
    for (const Term &t : rule.head.args) {
        auto it = var_slots.find(t.id);
        util::panicIf(t.isVariable && it == var_slots.end(),
                      "addRule: unsafe head variable in rule " +
                          rule.name);
        compiled.headSlots.push_back(t.isVariable ? it->second
                                                  : new_slot(t.id));
    }
    rules_.push_back(std::move(rule));
    compiled_.push_back(std::move(compiled));
}

size_t
KnowledgeBase::forwardChain(FactStore &facts, size_t max_rounds) const
{
    // Heads not known when derived, packed; one rule's join fills it
    // before any of them is added.
    std::vector<ConstId> derived;
    size_t total_derived = 0;
    for (size_t round = 0; round < max_rounds; round++) {
        size_t round_derived = 0;
        for (size_t r = 0; r < compiled_.size(); r++) {
            core::ScopedOp op("rule_ground",
                              core::OpCategory::Other);
            const CompiledRule &rule = compiled_[r];
            size_t arity = rule.headSlots.size();
            size_t heads = 0;
            derived.clear();
            size_t attempts = join(
                r, facts,
                [&](std::span<const ConstId> head,
                    std::span<const int32_t>) {
                    if (facts.find(rule.head, head) < 0) {
                        derived.insert(derived.end(), head.begin(),
                                       head.end());
                        heads++;
                    }
                });

            double scanned = 0.0;
            for (const auto &step : rule.body)
                scanned += static_cast<double>(
                    facts.rows(step.predicate).size() *
                    (step.args.size() + 1) * 4);
            op.setFlops(static_cast<double>(attempts));
            op.setBytesRead(scanned);
            op.setBytesWritten(
                static_cast<double>(heads * (arity + 1) * 4));

            for (size_t i = 0; i < heads; i++)
                round_derived += facts.insert(
                    rule.head, {derived.data() + i * arity, arity});
        }
        total_derived += round_derived;
        if (round_derived == 0)
            return total_derived;
    }
    util::warn("forwardChain: round cap reached before fixpoint");
    return total_derived;
}

} // namespace nsbench::logic
