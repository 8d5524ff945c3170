/**
 * @file
 * Remainder-handling regressions for the chunked reductions.
 *
 * The deterministic reductions (sum/max/argmax/dot) cut their input
 * into grain-sized chunks — 32768 elements for the cheap ops — and
 * combine per-chunk partials in chunk order. Every pre-existing test
 * used inputs far below one grain, so the multi-chunk combine and the
 * partial final chunk (length % grain != 0) never executed. These
 * tests pin that tail behavior against naive serial references, with
 * the extremum deliberately placed inside the partial tail chunk and
 * duplicated across chunk boundaries.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"
#include "util/threadpool.hh"

namespace
{

using namespace nsbench;
using nsbench::tensor::Tensor;
using nsbench::util::Rng;

// The grain the cheap reductions resolve to (targetWork 32768 at one
// unit of work per element). Sizes straddle one and two grains.
constexpr int64_t kGrain = 32768;
const std::vector<int64_t> kTailSizes = {
    kGrain - 1, kGrain, kGrain + 1, 2 * kGrain - 1, 2 * kGrain + 17};

double
naiveSum(const Tensor &t)
{
    double acc = 0.0;
    for (int64_t i = 0; i < t.numel(); i++)
        acc += static_cast<double>(t.flat(i));
    return acc;
}

TEST(ReductionTails, SumAcrossChunkBoundary)
{
    Rng rng{301};
    for (int64_t n : kTailSizes) {
        Tensor a = Tensor::rand({n}, rng, -1.0f, 1.0f);
        double want = naiveSum(a);
        double got = static_cast<double>(tensor::sumAll(a));
        double denom = std::max(std::abs(want), 1.0);
        EXPECT_LE(std::abs(got - want) / denom, 1e-5) << "n=" << n;
    }
}

TEST(ReductionTails, MaxInPartialTailChunk)
{
    Rng rng{302};
    for (int64_t n : kTailSizes) {
        Tensor a = Tensor::rand({n}, rng, -2.0f, -1.0f);
        // The unique maximum lives in the final (partial) chunk.
        a(n - 1) = 3.5f;
        EXPECT_EQ(tensor::argmaxAll(a), n - 1) << "n=" << n;
    }
}

TEST(ReductionTails, ArgmaxFirstWinsAcrossChunks)
{
    Rng rng{303};
    // Duplicated maxima in different chunks: the chunk-ordered
    // combine must keep the serial earliest-index rule.
    int64_t n = 2 * kGrain + 5;
    Tensor a = Tensor::rand({n}, rng, -1.0f, 1.0f);
    a(7) = 9.0f;
    a(kGrain + 3) = 9.0f;
    a(n - 1) = 9.0f;
    EXPECT_EQ(tensor::argmaxAll(a), 7);

    // And a strictly larger value later must still beat an earlier
    // chunk's best.
    a(2 * kGrain + 2) = 10.0f;
    EXPECT_EQ(tensor::argmaxAll(a), 2 * kGrain + 2);
}

TEST(ReductionTails, DotAcrossChunkBoundary)
{
    Rng rng{304};
    for (int64_t n : kTailSizes) {
        Tensor a = Tensor::rand({n}, rng, -1.0f, 1.0f);
        Tensor b = Tensor::rand({n}, rng, -1.0f, 1.0f);
        double want = 0.0;
        for (int64_t i = 0; i < n; i++)
            want += static_cast<double>(a.flat(i)) *
                    static_cast<double>(b.flat(i));
        double got = static_cast<double>(tensor::dot(a, b));
        double denom = std::max(std::abs(want), 1.0);
        EXPECT_LE(std::abs(got - want) / denom, 1e-5) << "n=" << n;
    }
}

TEST(ReductionTails, StableAcrossWidthsAtTailSizes)
{
    // Chunk-grid determinism at exactly the tail-sensitive sizes.
    Rng rng{305};
    Tensor a = Tensor::rand({kGrain + 1}, rng, -1.0f, 1.0f);
    util::ThreadPool::setGlobalThreads(1);
    float want_sum = tensor::sumAll(a);
    int64_t want_arg = tensor::argmaxAll(a);
    for (int width : {2, 4, 13}) {
        util::ThreadPool::setGlobalThreads(width);
        EXPECT_EQ(tensor::sumAll(a), want_sum) << "width " << width;
        EXPECT_EQ(tensor::argmaxAll(a), want_arg)
            << "width " << width;
    }
    util::ThreadPool::setGlobalThreads(0);
}

} // namespace
