/**
 * @file
 * Parallel-vs-serial equivalence for the VSA hot paths.
 *
 * The codebook sweeps and bundling are parallelized over dimension or
 * entry slices with a fixed traversal order per output element, so
 * every result must be bit-identical to the width-1 run at any pool
 * width.
 *
 * The FFT's plans are the one piece of shared mutable state on these
 * paths: built on first use, then read by every thread. Threads that
 * race to build them must get the bytes a single thread gets.
 */

#include <gtest/gtest.h>

#include <barrier>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "cache/config.hh"
#include "serve/presets.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"
#include "util/threadpool.hh"
#include "vsa/codebook.hh"
#include "vsa/ops.hh"

namespace
{

using namespace nsbench;
using nsbench::tensor::Tensor;
using nsbench::util::Rng;
using nsbench::util::ThreadPool;

const std::vector<int> kWidths = {1, 2, 4, 13};

class VsaParallelEquivalence : public testing::Test
{
  protected:
    ~VsaParallelEquivalence() override
    {
        ThreadPool::setGlobalThreads(0);
    }

    void
    expectTensorStable(const std::function<Tensor()> &fn)
    {
        ThreadPool::setGlobalThreads(1);
        Tensor expect = fn();
        for (int width : kWidths) {
            ThreadPool::setGlobalThreads(width);
            Tensor got = fn();
            ASSERT_EQ(got.shape(), expect.shape());
            for (int64_t i = 0; i < got.numel(); i++)
                EXPECT_EQ(got.flat(i), expect.flat(i))
                    << "width " << width << " elem " << i;
        }
    }

    Rng rng{99};
};

TEST_F(VsaParallelEquivalence, CodebookCleanup)
{
    vsa::Codebook book(257, 4096, rng);
    // A noisy atom: cleanup must find the same winner with the same
    // similarity at every width.
    Tensor query = vsa::bundle(
        {book.atom(123), vsa::randomHypervector(4096, rng)});
    ThreadPool::setGlobalThreads(1);
    auto expect = book.cleanup(query);
    EXPECT_EQ(expect.index, 123);
    for (int width : kWidths) {
        ThreadPool::setGlobalThreads(width);
        auto got = book.cleanup(query);
        EXPECT_EQ(got.index, expect.index) << "width " << width;
        EXPECT_EQ(got.similarity, expect.similarity)
            << "width " << width;
    }
}

TEST_F(VsaParallelEquivalence, CodebookCleanupTiedQuery)
{
    // An all-zeros query makes every similarity zero: the argmax rule
    // (first strict max) must still pick the same atom at every width.
    vsa::Codebook book(64, 512, rng);
    Tensor query(tensor::Shape{512});
    ThreadPool::setGlobalThreads(1);
    auto expect = book.cleanup(query);
    for (int width : kWidths) {
        ThreadPool::setGlobalThreads(width);
        auto got = book.cleanup(query);
        EXPECT_EQ(got.index, expect.index) << "width " << width;
    }
}

TEST_F(VsaParallelEquivalence, CodebookEncodeDecode)
{
    vsa::Codebook book(128, 2048, rng);
    Tensor pmf(tensor::Shape{128});
    for (int64_t i = 0; i < 128; i++)
        pmf.flat(i) = (i % 3 == 0) ? 1.0f / 43.0f : 0.0f;
    Tensor hv = vsa::randomHypervector(2048, rng);
    expectTensorStable([&] { return book.encodePmf(pmf); });
    expectTensorStable([&] { return book.decodePmf(hv); });
}

TEST_F(VsaParallelEquivalence, BundleAndBind)
{
    std::vector<Tensor> vectors;
    for (int i = 0; i < 9; i++)
        vectors.push_back(vsa::randomHypervector(8192, rng));
    expectTensorStable([&] { return vsa::bundle(vectors); });
    expectTensorStable([&] { return vsa::bundleMajority(vectors); });
    expectTensorStable(
        [&] { return vsa::bind(vectors[0], vectors[1]); });
}

TEST_F(VsaParallelEquivalence, CircularConvolution)
{
    Tensor a = vsa::randomHypervector(1024, rng);
    Tensor b = vsa::randomHypervector(1024, rng);
    expectTensorStable([&] { return vsa::circularConvolve(a, b); });
    expectTensorStable([&] { return vsa::circularCorrelate(a, b); });
}

/** Every FFT op at lengths nothing else in this test has used. */
std::vector<Tensor>
fftOpOutputs()
{
    std::vector<Tensor> out;
    for (int64_t d : {32, 64, 128, 4096, 8192}) {
        Rng rng(static_cast<uint64_t>(d));
        Tensor a = Tensor::randn({d}, rng);
        Tensor b = Tensor::randn({d}, rng);
        out.push_back(vsa::fftCircularConvolve(a, b));
        Tensor base = vsa::unitaryVector(d, rng);
        out.push_back(base);
        for (int power : {-3, 2, 7})
            out.push_back(vsa::convPower(base, power));
    }
    return out;
}

/** Scores of serve-preset NVSA (hvDim 256) over three puzzles. */
std::vector<double>
servePresetNvsaScores()
{
    auto nvsa = serve::serveFactory("NVSA");
    nvsa->setUp(7);
    std::vector<double> scores;
    for (uint64_t seed = 1; seed <= 3; seed++) {
        nvsa->reseedEpisodes(seed);
        scores.push_back(nvsa->run());
    }
    return scores;
}

TEST_F(VsaParallelEquivalence, ConcurrentFftPlanBuildsMatchOneThread)
{
    // Four threads start together, so they race to build each plan;
    // the single-thread reference runs after them.
    cache::setEnabled(false);
    constexpr int kThreads = 4;
    std::barrier start(kThreads);
    std::vector<std::vector<Tensor>> outputs(kThreads);
    std::vector<std::vector<double>> scores(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++)
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            outputs[t] = fftOpOutputs();
            scores[t] = servePresetNvsaScores();
        });
    for (auto &thread : threads)
        thread.join();

    std::vector<Tensor> want = fftOpOutputs();
    std::vector<double> want_scores = servePresetNvsaScores();
    cache::resetEnabled();
    for (int t = 0; t < kThreads; t++) {
        ASSERT_EQ(outputs[t].size(), want.size());
        for (size_t i = 0; i < want.size(); i++) {
            ASSERT_EQ(outputs[t][i].shape(), want[i].shape());
            EXPECT_EQ(std::memcmp(outputs[t][i].data().data(),
                                  want[i].data().data(),
                                  want[i].data().size_bytes()),
                      0)
                << "thread " << t << " output " << i;
        }
        ASSERT_EQ(scores[t].size(), want_scores.size());
        EXPECT_EQ(std::memcmp(scores[t].data(), want_scores.data(),
                              want_scores.size() * sizeof(double)),
                  0)
            << "thread " << t;
    }
}

} // namespace
