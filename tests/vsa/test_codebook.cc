#include <gtest/gtest.h>

#include <cmath>

#include "core/profiler.hh"
#include "vsa/codebook.hh"
#include "vsa/ops.hh"

namespace
{

using namespace nsbench::vsa;
using nsbench::tensor::Tensor;
using nsbench::util::Rng;

TEST(Codebook, AtomsAreBipolarAndStable)
{
    Rng rng(1);
    Codebook book(16, 256, rng);
    EXPECT_EQ(book.entries(), 16);
    EXPECT_EQ(book.dim(), 256);
    EXPECT_EQ(book.bytes(), 16u * 256 * 4);
    Tensor a0 = book.atom(0);
    for (float v : a0.data())
        EXPECT_TRUE(v == 1.0f || v == -1.0f);
    Tensor again = book.atom(0);
    for (int64_t i = 0; i < 256; i++)
        EXPECT_EQ(a0(i), again(i));
}

TEST(Codebook, CleanupFindsExactAtom)
{
    Rng rng(2);
    Codebook book(32, 1024, rng);
    for (int64_t e : {0L, 7L, 31L}) {
        auto res = book.cleanup(book.atom(e));
        EXPECT_EQ(res.index, e);
        EXPECT_NEAR(res.similarity, 1.0f, 1e-5);
    }
}

TEST(Codebook, CleanupToleratesNoise)
{
    Rng rng(3);
    Codebook book(32, 2048, rng);
    Tensor noisy = book.atom(5);
    // Flip 20% of positions.
    auto data = noisy.data();
    for (size_t i = 0; i < data.size(); i += 5)
        data[i] = -data[i];
    auto res = book.cleanup(noisy);
    EXPECT_EQ(res.index, 5);
    EXPECT_GT(res.similarity, 0.5f);
}

TEST(Codebook, EncodeDecodeRoundTripOnPeakedPmf)
{
    Rng rng(4);
    Codebook book(24, 2048, rng);
    Tensor pmf = Tensor::zeros({24});
    pmf(3) = 0.8f;
    pmf(10) = 0.2f;
    Tensor hv = book.encodePmf(pmf);
    Tensor decoded = book.decodePmf(hv);
    // The dominant entry survives the round trip.
    int64_t best = 0;
    for (int64_t e = 1; e < 24; e++) {
        if (decoded(e) > decoded(best))
            best = e;
    }
    EXPECT_EQ(best, 3);
    // Decoded PMF sums to one.
    float sum = 0.0f;
    for (int64_t e = 0; e < 24; e++)
        sum += decoded(e);
    EXPECT_NEAR(sum, 1.0f, 1e-5);
}

TEST(Codebook, EncodeSkipsBelowThreshold)
{
    Rng rng(5);
    Codebook book(8, 512, rng);
    Tensor pmf = Tensor::zeros({8});
    pmf(2) = 1.0f;
    Tensor hv = book.encodePmf(pmf);
    // Encoding a one-hot PMF reproduces the atom exactly.
    EXPECT_FLOAT_EQ(cosineSimilarity(hv, book.atom(2)), 1.0f);
}

TEST(Codebook, SparsityRecordedUnderStageLabel)
{
    auto &prof = nsbench::core::globalProfiler();
    prof.reset();
    Rng rng(6);
    Codebook book(20, 256, rng);
    Tensor pmf = Tensor::zeros({20});
    pmf(0) = 1.0f; // 19/20 zeros
    book.encodePmf(pmf, "pmf_to_vsa/test");
    auto recs = prof.sparsityRecords();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].stage, "pmf_to_vsa/test");
    EXPECT_DOUBLE_EQ(recs[0].ratio(), 0.95);
    prof.reset();
}

TEST(Codebook, DecodeThresholdSparsifies)
{
    auto &prof = nsbench::core::globalProfiler();
    prof.reset();
    Rng rng(7);
    Codebook book(64, 2048, rng);
    Tensor pmf = Tensor::zeros({64});
    pmf(9) = 1.0f;
    Tensor hv = book.encodePmf(pmf);
    // With a positive threshold, random-atom similarities clamp to 0.
    Tensor decoded = book.decodePmf(hv, "vsa_to_pmf/test", 0.1f);
    EXPECT_NEAR(decoded(9), 1.0f, 1e-4);
    auto recs = prof.sparsityRecords();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_GT(recs[0].ratio(), 0.9);
    prof.reset();
}

TEST(CodebookDeath, BadSizes)
{
    Rng rng(1);
    EXPECT_DEATH(Codebook(0, 16, rng), "non-positive");
    Codebook book(4, 16, rng);
    EXPECT_DEATH(book.atom(4), "out of range");
    Tensor wrong = Tensor::zeros({3});
    EXPECT_DEATH(book.encodePmf(wrong), "length");
    EXPECT_DEATH(book.decodePmf(wrong), "dimension mismatch");
}

} // namespace
