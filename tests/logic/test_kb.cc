#include <gtest/gtest.h>

#include "logic/kb.hh"

namespace
{

using namespace nsbench::logic;

/** The classic carnivore example from the paper's Tab. II. */
class AnimalKb : public testing::Test
{
  protected:
    void
    SetUp() override
    {
        animal = kb.addPredicate("animal", 1);
        mammal = kb.addPredicate("mammal", 1);
        carnivore = kb.addPredicate("carnivore", 1);
        hypos = kb.addPredicate("hypos", 1);
        dog = kb.addConstant("dog");
        rock = kb.addConstant("rock");

        kb.addFact({animal, {dog}});
        kb.addFact({mammal, {dog}});
        kb.addFact({carnivore, {dog}});

        // hypos(x) :- animal(x), mammal(x), carnivore(x).
        Rule rule;
        rule.name = "abl";
        rule.head = {hypos, {Term::var(0)}};
        rule.body = {{animal, {Term::var(0)}},
                     {mammal, {Term::var(0)}},
                     {carnivore, {Term::var(0)}}};
        kb.addRule(std::move(rule));
    }

    KnowledgeBase kb;
    PredId animal{}, mammal{}, carnivore{}, hypos{};
    ConstId dog{}, rock{};
};

TEST_F(AnimalKb, ForwardChainDerivesHead)
{
    EXPECT_FALSE(kb.hasFact({hypos, {dog}}));
    size_t derived = kb.forwardChain();
    EXPECT_EQ(derived, 1u);
    EXPECT_TRUE(kb.hasFact({hypos, {dog}}));
    EXPECT_FALSE(kb.hasFact({hypos, {rock}}));
}

TEST_F(AnimalKb, HasFactIsFalseForUnknownPredicateOrWrongArity)
{
    EXPECT_TRUE(kb.hasFact({animal, {dog}}));
    EXPECT_FALSE(kb.hasFact({hypos + 1, {dog}}));
    EXPECT_FALSE(kb.hasFact({-1, {dog}}));
    EXPECT_FALSE(kb.hasFact({animal, {}}));
    EXPECT_FALSE(kb.hasFact({animal, {dog, dog}}));
}

TEST_F(AnimalKb, ChainIsIdempotent)
{
    kb.forwardChain();
    size_t more = kb.forwardChain();
    EXPECT_EQ(more, 0u);
}

TEST_F(AnimalKb, DuplicateFactsIgnored)
{
    EXPECT_FALSE(kb.addFact({animal, {dog}}));
    EXPECT_EQ(kb.facts(animal).size(), 1u);
}

TEST(KnowledgeBase, TransitiveClosure)
{
    KnowledgeBase kb;
    PredId edge = kb.addPredicate("edge", 2);
    PredId path = kb.addPredicate("path", 2);
    std::vector<ConstId> nodes;
    for (int i = 0; i < 6; i++)
        nodes.push_back(kb.addConstant("n" + std::to_string(i)));
    // Chain 0 -> 1 -> ... -> 5.
    for (int i = 0; i + 1 < 6; i++)
        kb.addFact({edge, {nodes[i], nodes[i + 1]}});

    Rule base;
    base.head = {path, {Term::var(0), Term::var(1)}};
    base.body = {{edge, {Term::var(0), Term::var(1)}}};
    kb.addRule(std::move(base));

    Rule trans;
    trans.head = {path, {Term::var(0), Term::var(2)}};
    trans.body = {{edge, {Term::var(0), Term::var(1)}},
                  {path, {Term::var(1), Term::var(2)}}};
    kb.addRule(std::move(trans));

    kb.forwardChain();
    // All 5+4+3+2+1 = 15 paths exist.
    EXPECT_EQ(kb.facts(path).size(), 15u);
    EXPECT_TRUE(kb.hasFact({path, {nodes[0], nodes[5]}}));
    EXPECT_FALSE(kb.hasFact({path, {nodes[5], nodes[0]}}));
}

TEST(KnowledgeBase, ConstantInRuleBodyFilters)
{
    KnowledgeBase kb;
    PredId likes = kb.addPredicate("likes", 2);
    PredId fan = kb.addPredicate("fan_of_bob", 1);
    ConstId alice = kb.addConstant("alice");
    ConstId bob = kb.addConstant("bob");
    ConstId carol = kb.addConstant("carol");
    kb.addFact({likes, {alice, bob}});
    kb.addFact({likes, {carol, alice}});

    Rule r;
    r.head = {fan, {Term::var(0)}};
    r.body = {{likes, {Term::var(0), Term::constant(bob)}}};
    kb.addRule(std::move(r));
    kb.forwardChain();

    EXPECT_TRUE(kb.hasFact({fan, {alice}}));
    EXPECT_FALSE(kb.hasFact({fan, {carol}}));
}

TEST(KnowledgeBase, SharedVariableJoin)
{
    KnowledgeBase kb;
    PredId parent = kb.addPredicate("parent", 2);
    PredId grandparent = kb.addPredicate("grandparent", 2);
    ConstId a = kb.addConstant("a");
    ConstId b = kb.addConstant("b");
    ConstId c = kb.addConstant("c");
    ConstId d = kb.addConstant("d");
    kb.addFact({parent, {a, b}});
    kb.addFact({parent, {b, c}});
    kb.addFact({parent, {c, d}});

    Rule r;
    r.head = {grandparent, {Term::var(0), Term::var(2)}};
    r.body = {{parent, {Term::var(0), Term::var(1)}},
              {parent, {Term::var(1), Term::var(2)}}};
    kb.addRule(std::move(r));
    kb.forwardChain();

    EXPECT_EQ(kb.facts(grandparent).size(), 2u);
    EXPECT_TRUE(kb.hasFact({grandparent, {a, c}}));
    EXPECT_TRUE(kb.hasFact({grandparent, {b, d}}));
}

TEST(KnowledgeBase, SymbolTables)
{
    KnowledgeBase kb;
    PredId p = kb.addPredicate("p", 1);
    ConstId c = kb.addConstant("thing");
    EXPECT_EQ(kb.predicateName(p), "p");
    EXPECT_EQ(kb.constantName(c), "thing");
    EXPECT_EQ(kb.arity(p), 1);
    // Constants are interned.
    EXPECT_EQ(kb.addConstant("thing"), c);
    EXPECT_EQ(kb.numConstants(), 1u);
}

TEST(KnowledgeBase, FactBytesGrow)
{
    KnowledgeBase kb;
    PredId p = kb.addPredicate("p", 2);
    ConstId a = kb.addConstant("a");
    EXPECT_EQ(kb.factBytes(), 0u);
    kb.addFact({p, {a, a}});
    EXPECT_EQ(kb.factBytes(), 12u);
}

TEST(KnowledgeBaseDeath, Validations)
{
    KnowledgeBase kb;
    PredId p = kb.addPredicate("p", 1);
    EXPECT_DEATH(kb.addPredicate("p", 2), "duplicate");
    ConstId a = kb.addConstant("a");
    EXPECT_DEATH(kb.addFact({p, {a, a}}), "arity mismatch");

    Rule unsafe;
    unsafe.name = "unsafe";
    unsafe.head = {p, {Term::var(9)}};
    unsafe.body = {{p, {Term::var(0)}}};
    EXPECT_DEATH(kb.addRule(std::move(unsafe)), "unsafe head");

    Rule empty;
    empty.head = {p, {Term::var(0)}};
    EXPECT_DEATH(kb.addRule(std::move(empty)), "empty body");
}

} // namespace
