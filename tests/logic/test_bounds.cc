#include <gtest/gtest.h>

#include <algorithm>

#include "logic/bounds.hh"

namespace
{

using namespace nsbench::logic;

TEST(TruthBounds, Constructors)
{
    EXPECT_EQ(TruthBounds::unknown().lower, 0.0f);
    EXPECT_EQ(TruthBounds::unknown().upper, 1.0f);
    EXPECT_TRUE(TruthBounds::certainTrue().isTrue());
    EXPECT_TRUE(TruthBounds::certainFalse().isFalse());
    TruthBounds pt = TruthBounds::exactly(0.7f);
    EXPECT_EQ(pt.lower, pt.upper);
    EXPECT_FLOAT_EQ(pt.width(), 0.0f);
}

TEST(TruthBounds, Classification)
{
    TruthBounds mostly_true{0.8f, 1.0f};
    EXPECT_TRUE(mostly_true.isTrue(0.5f));
    EXPECT_FALSE(mostly_true.isFalse(0.5f));
    TruthBounds mostly_false{0.0f, 0.2f};
    EXPECT_TRUE(mostly_false.isFalse(0.5f));
    TruthBounds unknown = TruthBounds::unknown();
    EXPECT_FALSE(unknown.isTrue());
    EXPECT_FALSE(unknown.isFalse());
}

TEST(TruthBounds, TightenIntersects)
{
    TruthBounds a{0.2f, 0.9f};
    TruthBounds b{0.4f, 1.0f};
    TruthBounds t = tighten(a, b);
    EXPECT_FLOAT_EQ(t.lower, 0.4f);
    EXPECT_FLOAT_EQ(t.upper, 0.9f);
    EXPECT_TRUE(t.valid());
}

TEST(TruthBounds, TightenDetectsContradiction)
{
    TruthBounds a{0.8f, 1.0f};
    TruthBounds b{0.0f, 0.3f};
    EXPECT_TRUE(tighten(a, b).contradictory());
}

TEST(TruthBounds, NotSwapsAndComplements)
{
    TruthBounds a{0.2f, 0.7f};
    TruthBounds n = boundsNot(a);
    EXPECT_FLOAT_EQ(n.lower, 0.3f);
    EXPECT_FLOAT_EQ(n.upper, 0.8f);
    // Involution.
    TruthBounds back = boundsNot(n);
    EXPECT_FLOAT_EQ(back.lower, a.lower);
    EXPECT_FLOAT_EQ(back.upper, a.upper);
}

TEST(TruthBounds, AndOrOnCertainValues)
{
    TruthBounds t = TruthBounds::certainTrue();
    TruthBounds f = TruthBounds::certainFalse();
    EXPECT_TRUE(boundsAnd(t, t).isTrue());
    EXPECT_TRUE(boundsAnd(t, f).isFalse());
}

TEST(TruthBounds, AndWithUnknownStaysValid)
{
    TruthBounds u = TruthBounds::unknown();
    TruthBounds t = TruthBounds::certainTrue();
    TruthBounds r = boundsAnd(u, t);
    EXPECT_TRUE(r.valid());
    EXPECT_FLOAT_EQ(r.lower, 0.0f);
    EXPECT_FLOAT_EQ(r.upper, 1.0f);
}

TEST(TruthBounds, ImpliesSemantics)
{
    TruthBounds t = TruthBounds::certainTrue();
    TruthBounds f = TruthBounds::certainFalse();
    EXPECT_TRUE(boundsImplies(t, f).isFalse());
    EXPECT_TRUE(boundsImplies(f, f).isTrue()); // vacuous truth
    EXPECT_TRUE(boundsImplies(t, t).isTrue());
    // Point values follow the Lukasiewicz residuum.
    TruthBounds r = boundsImplies(TruthBounds::exactly(0.8f),
                                  TruthBounds::exactly(0.5f));
    EXPECT_NEAR(r.lower, 0.7f, 1e-6);
    EXPECT_NEAR(r.upper, 0.7f, 1e-6);
}

TEST(TruthBounds, DownwardAndModusPonens)
{
    // If (a AND b) is certainly true and b is certainly true, a must
    // be true.
    TruthBounds a = downwardAnd(TruthBounds::certainTrue(),
                                TruthBounds::certainTrue());
    EXPECT_FLOAT_EQ(a.lower, 1.0f);
    EXPECT_FLOAT_EQ(a.upper, 1.0f);
    // If the conjunction is unknown, nothing follows.
    TruthBounds b = downwardAnd(TruthBounds::unknown(),
                                TruthBounds::certainTrue());
    EXPECT_FLOAT_EQ(b.lower, 0.0f);
    EXPECT_FLOAT_EQ(b.upper, 1.0f);
}

TEST(TruthBounds, DownwardOrDisjunctiveSyllogism)
{
    // (a OR b) true, b false => a true.
    TruthBounds a = downwardOr(TruthBounds::certainTrue(),
                               TruthBounds::certainFalse());
    EXPECT_FLOAT_EQ(a.lower, 1.0f);
    // (a OR b) false => a false.
    TruthBounds c = downwardOr(TruthBounds::certainFalse(),
                               TruthBounds::unknown());
    EXPECT_FLOAT_EQ(c.upper, 0.0f);
}

TEST(TruthBounds, DownwardInferencesAreSound)
{
    // Exhaustive grid check: for point values a, b, the forward
    // conjunction or disjunction and the downward inference on a are
    // consistent.
    for (float av = 0.0f; av <= 1.001f; av += 0.25f) {
        for (float bv = 0.0f; bv <= 1.001f; bv += 0.25f) {
            TruthBounds a = TruthBounds::exactly(av);
            TruthBounds b = TruthBounds::exactly(bv);
            TruthBounds out = boundsAnd(a, b);
            TruthBounds inferred = downwardAnd(out, b);
            EXPECT_LE(inferred.lower, av + 1e-5f);
            EXPECT_GE(inferred.upper, av - 1e-5f);

            // Lukasiewicz disjunction of point values: min(1, a + b).
            TruthBounds out_or =
                TruthBounds::exactly(std::min(1.0f, av + bv));
            TruthBounds inf_or = downwardOr(out_or, b);
            EXPECT_LE(inf_or.lower, av + 1e-5f);
            EXPECT_GE(inf_or.upper, av - 1e-5f);
        }
    }
}

} // namespace
