#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "logic/fuzzy.hh"

namespace
{

using namespace nsbench::logic;

constexpr std::array<TNormKind, 3> allKinds = {
    TNormKind::Lukasiewicz, TNormKind::Goedel, TNormKind::Product};

class TNormProperty : public testing::TestWithParam<TNormKind>
{
};

TEST_P(TNormProperty, IdentityElementIsOne)
{
    TNormKind kind = GetParam();
    for (float a : {0.0f, 0.25f, 0.5f, 0.75f, 1.0f}) {
        EXPECT_FLOAT_EQ(tNorm(kind, a, 1.0f), a);
        EXPECT_FLOAT_EQ(tNorm(kind, 1.0f, a), a);
    }
}

TEST_P(TNormProperty, ZeroAnnihilates)
{
    TNormKind kind = GetParam();
    for (float a : {0.0f, 0.3f, 1.0f})
        EXPECT_FLOAT_EQ(tNorm(kind, a, 0.0f), 0.0f);
}

TEST_P(TNormProperty, Commutative)
{
    TNormKind kind = GetParam();
    for (float a : {0.1f, 0.4f, 0.9f}) {
        for (float b : {0.2f, 0.6f, 1.0f})
            EXPECT_FLOAT_EQ(tNorm(kind, a, b), tNorm(kind, b, a));
    }
}

TEST_P(TNormProperty, Associative)
{
    TNormKind kind = GetParam();
    for (float a : {0.2f, 0.7f}) {
        for (float b : {0.3f, 0.9f}) {
            for (float c : {0.5f, 1.0f}) {
                EXPECT_NEAR(tNorm(kind, tNorm(kind, a, b), c),
                            tNorm(kind, a, tNorm(kind, b, c)), 1e-6);
            }
        }
    }
}

TEST_P(TNormProperty, Monotone)
{
    TNormKind kind = GetParam();
    for (float a : {0.1f, 0.5f, 0.9f}) {
        EXPECT_LE(tNorm(kind, a, 0.3f), tNorm(kind, a, 0.7f));
        EXPECT_LE(tNorm(kind, 0.3f, a), tNorm(kind, 0.7f, a));
    }
}

TEST_P(TNormProperty, BoundedByMin)
{
    TNormKind kind = GetParam();
    for (float a : {0.2f, 0.6f, 1.0f}) {
        for (float b : {0.1f, 0.8f})
            EXPECT_LE(tNorm(kind, a, b), std::min(a, b) + 1e-7f);
    }
}

TEST_P(TNormProperty, DeMorganDuality)
{
    TNormKind kind = GetParam();
    for (float a : {0.15f, 0.5f, 0.85f}) {
        for (float b : {0.25f, 0.75f}) {
            float lhs = tConorm(kind, a, b);
            float rhs = 1.0f - tNorm(kind, 1.0f - a, 1.0f - b);
            EXPECT_NEAR(lhs, rhs, 1e-6);
        }
    }
}

TEST_P(TNormProperty, ResiduationAdjunction)
{
    // tNorm(a, x) <= b iff x <= residuum(a, b); check the forward
    // direction on a grid.
    TNormKind kind = GetParam();
    for (float a : {0.2f, 0.5f, 0.9f}) {
        for (float b : {0.1f, 0.6f, 1.0f}) {
            float r = residuum(kind, a, b);
            EXPECT_LE(tNorm(kind, a, r), b + 1e-6f);
            // And the residuum is the largest such x: slightly larger
            // x violates the bound (when r < 1).
            if (r < 0.999f) {
                EXPECT_GT(tNorm(kind, a, std::min(1.0f, r + 0.01f)),
                          b - 1e-6f);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, TNormProperty,
                         testing::ValuesIn(allKinds));

TEST(Fuzzy, LukasiewiczKnownValues)
{
    EXPECT_FLOAT_EQ(tNorm(TNormKind::Lukasiewicz, 0.7f, 0.7f), 0.4f);
    EXPECT_FLOAT_EQ(tConorm(TNormKind::Lukasiewicz, 0.7f, 0.7f), 1.0f);
    EXPECT_FLOAT_EQ(residuum(TNormKind::Lukasiewicz, 0.8f, 0.5f), 0.7f);
    EXPECT_FLOAT_EQ(residuum(TNormKind::Lukasiewicz, 0.3f, 0.5f), 1.0f);
}

TEST(Fuzzy, GoedelAndProductResiduum)
{
    EXPECT_FLOAT_EQ(residuum(TNormKind::Goedel, 0.3f, 0.6f), 1.0f);
    EXPECT_FLOAT_EQ(residuum(TNormKind::Goedel, 0.6f, 0.3f), 0.3f);
    EXPECT_FLOAT_EQ(residuum(TNormKind::Product, 0.8f, 0.4f), 0.5f);
}

TEST(Fuzzy, PMeanErrorApproachesMin)
{
    std::vector<float> truths{0.2f, 0.9f, 1.0f};
    float loose = pMeanError(truths, 1.0f);
    float tight = pMeanError(truths, 20.0f);
    // p=1 reduces to the arithmetic mean.
    EXPECT_NEAR(loose, (0.2f + 0.9f + 1.0f) / 3.0f, 1e-5);
    // Large p approaches the minimum.
    EXPECT_NEAR(tight, 0.2f, 0.15f);
    EXPECT_LT(tight, loose);
}

TEST(Fuzzy, PMeanApproachesMax)
{
    std::vector<float> truths{0.1f, 0.2f, 0.9f};
    float loose = pMean(truths, 1.0f);
    float tight = pMean(truths, 20.0f);
    EXPECT_NEAR(loose, 0.4f, 1e-5);
    EXPECT_NEAR(tight, 0.9f, 0.15f);
    EXPECT_GT(tight, loose);
}

TEST(Fuzzy, QuantifiersOnConstantInput)
{
    std::vector<float> all_true{1.0f, 1.0f, 1.0f};
    EXPECT_FLOAT_EQ(pMeanError(all_true, 2.0f), 1.0f);
    EXPECT_FLOAT_EQ(pMean(all_true, 2.0f), 1.0f);
    std::vector<float> all_false{0.0f, 0.0f};
    EXPECT_FLOAT_EQ(pMeanError(all_false, 2.0f), 0.0f);
    EXPECT_FLOAT_EQ(pMean(all_false, 2.0f), 0.0f);
}

TEST(FuzzyDeath, RejectsOutOfRange)
{
    EXPECT_DEATH(tNorm(TNormKind::Product, 1.5f, 0.5f), "outside");
    std::vector<float> empty;
    EXPECT_DEATH(pMean(empty, 2.0f), "no operands");
}

} // namespace
