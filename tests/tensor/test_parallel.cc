/**
 * @file
 * Parallel-vs-serial equivalence for the tensor kernels.
 *
 * Every kernel must produce the width-1 result at every pool width:
 * bit-identical for maps and one-owner-per-output kernels, <= 1e-5
 * relative for chunked float reductions (which are in fact also
 * bit-identical across widths because the chunk grid is fixed by the
 * grain — the tolerance only covers the serial-vs-chunked split).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "tensor/ops.hh"
#include "util/rng.hh"
#include "util/threadpool.hh"

namespace
{

using namespace nsbench::tensor;
using nsbench::util::Rng;
using nsbench::util::ThreadPool;

/** Widths to sweep: serial, small, typical, oversubscribed. */
const std::vector<int> kWidths = {1, 2, 4, 13};

class ParallelEquivalence : public testing::Test
{
  protected:
    ~ParallelEquivalence() override
    {
        ThreadPool::setGlobalThreads(0);
    }

    /** Runs fn at width 1, then expects fn to match at all widths. */
    void
    expectTensorStable(const std::function<Tensor()> &fn,
                       bool exact = true)
    {
        ThreadPool::setGlobalThreads(1);
        Tensor expect = fn();
        for (int width : kWidths) {
            ThreadPool::setGlobalThreads(width);
            Tensor got = fn();
            ASSERT_EQ(got.shape(), expect.shape());
            for (int64_t i = 0; i < got.numel(); i++) {
                if (exact) {
                    EXPECT_EQ(got.flat(i), expect.flat(i))
                        << "width " << width << " elem " << i;
                } else {
                    EXPECT_NEAR(got.flat(i), expect.flat(i),
                                1e-5 *
                                    (1.0 +
                                     std::abs(expect.flat(i))))
                        << "width " << width << " elem " << i;
                }
            }
        }
    }

    void
    expectScalarStable(const std::function<double()> &fn,
                       double rel_tol)
    {
        ThreadPool::setGlobalThreads(1);
        double expect = fn();
        for (int width : kWidths) {
            ThreadPool::setGlobalThreads(width);
            double got = fn();
            EXPECT_NEAR(got, expect,
                        rel_tol * (1.0 + std::abs(expect)))
                << "width " << width;
        }
    }

    Rng rng{1234};
};

TEST_F(ParallelEquivalence, Matmul)
{
    Tensor a = Tensor::randn({67, 129}, rng);
    Tensor b = Tensor::randn({129, 43}, rng);
    expectTensorStable([&] { return matmul(a, b); });
}

TEST_F(ParallelEquivalence, MatmulLargeEnoughToSplit)
{
    // Big enough that the row grain actually produces many chunks.
    Tensor a = Tensor::randn({128, 256}, rng);
    Tensor b = Tensor::randn({256, 128}, rng);
    expectTensorStable([&] { return matmul(a, b); });
}

TEST_F(ParallelEquivalence, Linear)
{
    Tensor x = Tensor::randn({33, 64}, rng);
    Tensor w = Tensor::randn({17, 64}, rng);
    Tensor bias = Tensor::randn({17}, rng);
    expectTensorStable([&] { return linear(x, w, bias); });
}

TEST_F(ParallelEquivalence, Conv2d)
{
    Tensor in = Tensor::randn({2, 3, 19, 23}, rng);
    Tensor w = Tensor::randn({8, 3, 3, 3}, rng);
    Tensor bias = Tensor::randn({8}, rng);
    expectTensorStable(
        [&] { return conv2d(in, w, bias, 1, 1); });
}

TEST_F(ParallelEquivalence, Pooling)
{
    Tensor in = Tensor::randn({2, 4, 20, 20}, rng);
    expectTensorStable([&] { return maxPool2d(in, 2, 2); });
    expectTensorStable([&] { return avgPool2d(in, 3, 2); });
}

TEST_F(ParallelEquivalence, ElementwiseMaps)
{
    Tensor a = Tensor::randn({100000}, rng);
    Tensor b = Tensor::randn({100000}, rng);
    expectTensorStable([&] { return add(a, b); });
    expectTensorStable([&] { return mul(a, b); });
    expectTensorStable([&] { return relu(a); });
    expectTensorStable([&] { return sigmoid(a); });
}

TEST_F(ParallelEquivalence, SumReduction)
{
    Tensor a = Tensor::randn({200003}, rng);
    expectScalarStable([&] { return sumAll(a); }, 1e-5);
}

TEST_F(ParallelEquivalence, MaxAndArgmax)
{
    Tensor a = Tensor::randn({150001}, rng);
    // Max/argmax are exact at any split.
    expectScalarStable(
        [&] { return static_cast<double>(argmaxAll(a)); }, 0.0);
}

TEST_F(ParallelEquivalence, Dot)
{
    Tensor a = Tensor::randn({120000}, rng);
    Tensor b = Tensor::randn({120000}, rng);
    expectScalarStable([&] { return dot(a, b); }, 1e-5);
}

TEST_F(ParallelEquivalence, AxisReductions)
{
    Tensor a = Tensor::randn({37, 41, 11}, rng);
    expectTensorStable([&] { return sumAxis(a, 1); });
    expectTensorStable([&] { return maxAxis(a, 0); });
}

TEST_F(ParallelEquivalence, RowTransforms)
{
    Tensor a = Tensor::randn({513, 97}, rng);
    expectTensorStable([&] { return softmax(a); });
    expectTensorStable([&] { return logSoftmax(a); });
    expectTensorStable([&] { return normalizeL2(a, 1e-8f); });
}

} // namespace
