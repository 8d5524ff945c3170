/**
 * @file
 * Theorem proving with the logic substrate: author a small knowledge
 * base, saturate it with forward chaining, and inspect LNN-style
 * truth bounds under incomplete knowledge.
 */

#include <iostream>

#include "logic/bounds.hh"
#include "logic/fuzzy.hh"
#include "logic/kb.hh"

int
main()
{
    using namespace nsbench::logic;

    // --- Part 1: crisp Horn reasoning over a hand-authored KB.
    KnowledgeBase kb;
    PredId animal = kb.addPredicate("animal", 1);
    PredId mammal = kb.addPredicate("mammal", 1);
    PredId carnivore = kb.addPredicate("carnivore", 1);
    PredId hunts = kb.addPredicate("hunts", 2);
    PredId predator_of = kb.addPredicate("predatorOf", 1);
    PredId apex = kb.addPredicate("apex", 1);

    ConstId wolf = kb.addConstant("wolf");
    ConstId lynx = kb.addConstant("lynx");
    ConstId deer = kb.addConstant("deer");
    ConstId hare = kb.addConstant("hare");

    for (ConstId c : {wolf, lynx, deer, hare})
        kb.addFact({animal, {c}});
    for (ConstId c : {wolf, lynx, deer, hare})
        kb.addFact({mammal, {c}});
    kb.addFact({carnivore, {wolf}});
    kb.addFact({carnivore, {lynx}});
    kb.addFact({hunts, {wolf, deer}});
    kb.addFact({hunts, {wolf, hare}});
    kb.addFact({hunts, {lynx, hare}});

    // predatorOf(x) :- carnivore(x), hunts(x, y).
    {
        Rule r;
        r.name = "predator";
        r.head = {predator_of, {Term::var(0)}};
        r.body = {{carnivore, {Term::var(0)}},
                  {hunts, {Term::var(0), Term::var(1)}}};
        kb.addRule(std::move(r));
    }
    // apex(x) :- predatorOf(x), hunts(x, y), hunts(x, z) with y != z
    // approximated as two hunts atoms (duplicates allowed in Horn
    // logic; the wolf qualifies with two distinct prey).
    {
        Rule r;
        r.name = "apex";
        r.head = {apex, {Term::var(0)}};
        r.body = {{predator_of, {Term::var(0)}},
                  {hunts, {Term::var(0), Term::var(1)}},
                  {hunts, {Term::var(0), Term::var(2)}}};
        kb.addRule(std::move(r));
    }

    size_t derived = kb.forwardChain();
    std::cout << "forward chaining derived " << derived
              << " new facts:\n";
    for (PredId p : {predator_of, apex}) {
        FactRows facts = kb.facts(p);
        for (size_t row = 0; row < facts.size(); row++) {
            std::cout << "  " << kb.predicateName(p) << "("
                      << kb.constantName(facts[row][0]) << ")\n";
        }
    }

    // --- Part 2: truth bounds under uncertainty (the LNN view).
    std::cout << "\ntruth-bound reasoning with partial knowledge:\n";
    TruthBounds is_carnivore = TruthBounds::exactly(0.9f);
    TruthBounds does_hunt = TruthBounds{0.6f, 1.0f}; // only a lower hint
    TruthBounds conj = boundsAnd(is_carnivore, does_hunt);
    std::cout << "  carnivore=[0.9,0.9] AND hunts=[0.6,1.0] -> ["
              << conj.lower << ", " << conj.upper << "]\n";

    TruthBounds implied = boundsImplies(conj, TruthBounds::unknown());
    std::cout << "  (that conjunction) -> predator : ["
              << implied.lower << ", " << implied.upper
              << "]  (unknown consequent leaves it open)\n";

    // Modus ponens through the downward pass: the conjunction is
    // known true, one conjunct is known true, so the other tightens.
    TruthBounds inferred = downwardAnd(TruthBounds{0.8f, 1.0f},
                                       TruthBounds::certainTrue());
    std::cout << "  downward: AND=[0.8,1.0], other=[1,1] -> this >= "
              << inferred.lower << "\n";

    // --- Part 3: the same connectives in fuzzy point semantics.
    std::cout << "\nfuzzy semantics across t-norm families "
                 "(a=0.8, b=0.6):\n";
    for (auto kind : {TNormKind::Lukasiewicz, TNormKind::Goedel,
                      TNormKind::Product}) {
        std::cout << "  and=" << tNorm(kind, 0.8f, 0.6f)
                  << " or=" << tConorm(kind, 0.8f, 0.6f)
                  << " implies=" << residuum(kind, 0.8f, 0.6f) << "\n";
    }
    return 0;
}
