#include <gtest/gtest.h>

#include <cmath>

#include "nn/autograd.hh"
#include "tensor/ops.hh"
#include "util/rng.hh"

namespace
{

using namespace nsbench::nn;
using nsbench::tensor::Tensor;
using nsbench::util::Rng;

/**
 * Central-difference gradient check of a scalar-valued function of
 * one leaf.
 */
template <typename Fn>
void
checkGradient(Tensor leaf_value, Fn scalar_fn, float tol = 2e-2f)
{
    Variable leaf(leaf_value.clone(), /*requires_grad=*/true);
    Variable out = scalar_fn(leaf);
    ASSERT_EQ(out.value().numel(), 1);
    out.backward();
    Tensor analytic = leaf.grad().clone();

    const float eps = 1e-3f;
    for (int64_t i = 0; i < leaf_value.numel(); i++) {
        Tensor plus = leaf_value.clone();
        plus.flat(i) += eps;
        Tensor minus = leaf_value.clone();
        minus.flat(i) -= eps;
        float f_plus =
            scalar_fn(Variable(plus, false)).value().flat(0);
        float f_minus =
            scalar_fn(Variable(minus, false)).value().flat(0);
        float numeric = (f_plus - f_minus) / (2.0f * eps);
        EXPECT_NEAR(analytic.flat(i), numeric,
                    tol * std::max(1.0f, std::abs(numeric)))
            << "element " << i;
    }
}

TEST(Autograd, AddSubMulGradients)
{
    Rng rng(1);
    Tensor x = Tensor::randn({6}, rng);
    Tensor c = Tensor::randn({6}, rng);
    checkGradient(x, [&](Variable v) {
        Variable konst(c.clone());
        return meanAllV(mulV(addV(v, konst), subV(v, konst)));
    });
}

TEST(Autograd, SigmoidTanhReluGradients)
{
    Rng rng(2);
    Tensor x = Tensor::randn({8}, rng);
    checkGradient(x, [](Variable v) {
        return meanAllV(sigmoidV(v));
    });
    checkGradient(x, [](Variable v) { return meanAllV(tanhV(v)); });
}

TEST(Autograd, PowLogScalarGradients)
{
    Tensor x({4}, {0.3f, 0.8f, 1.4f, 2.2f});
    checkGradient(x, [](Variable v) {
        return meanAllV(powV(v, 3.0f));
    });
    checkGradient(x, [](Variable v) {
        return meanAllV(mulScalarV(v, 2.0f));
    });
}

TEST(Autograd, MatmulGradient)
{
    Rng rng(3);
    Tensor a = Tensor::randn({3, 4}, rng);
    Tensor b = Tensor::randn({4, 2}, rng);
    checkGradient(a, [&](Variable v) {
        return meanAllV(matmulV(v, Variable(b.clone())));
    });
    checkGradient(b, [&](Variable v) {
        return meanAllV(matmulV(Variable(a.clone()), v));
    });
}

TEST(Autograd, LinearGradientAllThreeInputs)
{
    Rng rng(4);
    Tensor x = Tensor::randn({5, 3}, rng);
    Tensor w = Tensor::randn({2, 3}, rng);
    Tensor bias = Tensor::randn({2}, rng);
    checkGradient(x, [&](Variable v) {
        return meanAllV(
            linearV(v, Variable(w.clone()), Variable(bias.clone())));
    });
    checkGradient(w, [&](Variable v) {
        return meanAllV(
            linearV(Variable(x.clone()), v, Variable(bias.clone())));
    });
    checkGradient(bias, [&](Variable v) {
        return meanAllV(
            linearV(Variable(x.clone()), Variable(w.clone()), v));
    });
}

TEST(Autograd, Conv2dGradientAllInputs)
{
    Rng rng(6);
    Tensor input = Tensor::randn({1, 2, 5, 5}, rng);
    Tensor weight = Tensor::randn({3, 2, 3, 3}, rng, 0.0f, 0.5f);
    Tensor bias = Tensor::randn({3}, rng);

    auto net = [&](Variable in, Variable w, Variable b) {
        return meanAllV(conv2dV(in, w, b, 1, 1));
    };
    checkGradient(input, [&](Variable v) {
        return net(v, Variable(weight.clone()),
                   Variable(bias.clone()));
    });
    checkGradient(weight, [&](Variable v) {
        return net(Variable(input.clone()), v,
                   Variable(bias.clone()));
    });
    checkGradient(bias, [&](Variable v) {
        return net(Variable(input.clone()),
                   Variable(weight.clone()), v);
    });
}

TEST(Autograd, Conv2dGradientStrided)
{
    Rng rng(8);
    Tensor input = Tensor::randn({2, 1, 6, 6}, rng);
    Tensor weight = Tensor::randn({2, 1, 3, 3}, rng, 0.0f, 0.5f);
    checkGradient(weight, [&](Variable v) {
        return meanAllV(
            conv2dV(Variable(input.clone()), v, Variable(), 2, 0));
    });
    checkGradient(input, [&](Variable v) {
        return meanAllV(conv2dV(v, Variable(weight.clone()),
                                Variable(), 2, 0));
    });
}

TEST(Autograd, LearnsAConvolutionFilter)
{
    // Recover a fixed 3x3 target filter by regression.
    Rng rng(9);
    Tensor target_filter = Tensor::randn({1, 1, 3, 3}, rng);
    Tensor x = Tensor::randn({4, 1, 8, 8}, rng);
    Tensor y = nsbench::tensor::conv2d(x, target_filter, Tensor(), 1,
                                       1);

    Variable w(Tensor::randn({1, 1, 3, 3}, rng, 0.0f, 0.1f), true);
    SgdOptimizer opt(0.05f);
    opt.addParameter(w);
    float loss_value = 1.0f;
    for (int epoch = 0; epoch < 150; epoch++) {
        Variable pred =
            conv2dV(Variable(x.clone()), w, Variable(), 1, 1);
        Variable err = subV(pred, Variable(y.clone()));
        Variable loss = meanAllV(mulV(err, err));
        loss.backward();
        opt.step();
        loss_value = loss.value().flat(0);
    }
    EXPECT_LT(loss_value, 1e-3f);
    for (int64_t i = 0; i < 9; i++)
        EXPECT_NEAR(w.value().flat(i), target_filter.flat(i), 0.05f);
}

TEST(Autograd, ReusedNodeAccumulatesBothPaths)
{
    // f(x) = mean(x*x + x): df/dx = 2x + 1.
    Tensor x({3}, {1.0f, -0.5f, 2.0f});
    Variable v(x.clone(), true);
    Variable out = meanAllV(addV(mulV(v, v), v));
    out.backward();
    for (int64_t i = 0; i < 3; i++) {
        EXPECT_NEAR(v.grad().flat(i),
                    (2.0f * x.flat(i) + 1.0f) / 3.0f, 1e-5);
    }
}

TEST(Autograd, NoGradLeavesStayClean)
{
    Variable frozen(Tensor({2}, {1, 2}), false);
    Variable live(Tensor({2}, {3, 4}), true);
    Variable out = meanAllV(mulV(frozen, live));
    out.backward();
    EXPECT_FALSE(frozen.requiresGrad());
    EXPECT_NEAR(live.grad().flat(0), 0.5f, 1e-6);
    EXPECT_NEAR(live.grad().flat(1), 1.0f, 1e-6);
}

TEST(Autograd, ZeroGradResets)
{
    Variable v(Tensor({2}, {1, 1}), true);
    meanAllV(v).backward();
    EXPECT_NEAR(v.grad().flat(0), 0.5f, 1e-6);
    v.zeroGrad();
    EXPECT_NEAR(v.grad().flat(0), 0.0f, 1e-6);
    // Gradients accumulate across backward calls until cleared.
    meanAllV(v).backward();
    meanAllV(v).backward();
    EXPECT_NEAR(v.grad().flat(0), 1.0f, 1e-6);
}

TEST(Autograd, SgdLearnsLinearRegression)
{
    // Fit y = x W*^T with W* = [[2, -1]].
    Rng rng(5);
    Tensor x = Tensor::randn({32, 2}, rng);
    Tensor w_star({1, 2}, {2.0f, -1.0f});
    Tensor y = nsbench::tensor::linear(x, w_star, Tensor());

    Variable w(Tensor::randn({1, 2}, rng, 0.0f, 0.1f), true);
    SgdOptimizer opt(0.1f);
    opt.addParameter(w);

    float final_loss = 1.0f;
    for (int epoch = 0; epoch < 200; epoch++) {
        Variable pred = linearV(Variable(x.clone()), w, Variable());
        Variable err = subV(pred, Variable(y.clone()));
        Variable loss = meanAllV(mulV(err, err));
        loss.backward();
        opt.step();
        final_loss = loss.value().flat(0);
    }
    EXPECT_LT(final_loss, 1e-4f);
    EXPECT_NEAR(w.value()(0, 0), 2.0f, 0.02f);
    EXPECT_NEAR(w.value()(0, 1), -1.0f, 0.02f);
}

TEST(Autograd, MlpLearnsXor)
{
    Tensor x({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
    Tensor y({4, 1}, {0, 1, 1, 0});

    Rng rng(7);
    Variable w1(Tensor::randn({8, 2}, rng, 0.0f, 1.0f), true);
    Variable b1(Tensor::zeros({8}), true);
    Variable w2(Tensor::randn({1, 8}, rng, 0.0f, 1.0f), true);
    Variable b2(Tensor::zeros({1}), true);

    SgdOptimizer opt(0.8f);
    for (Variable *p : {&w1, &b1, &w2, &b2})
        opt.addParameter(*p);

    float loss_value = 1.0f;
    for (int epoch = 0; epoch < 800; epoch++) {
        Variable h = tanhV(linearV(Variable(x.clone()), w1, b1));
        Variable pred = sigmoidV(linearV(h, w2, b2));
        Variable err = subV(pred, Variable(y.clone()));
        Variable loss = meanAllV(mulV(err, err));
        loss.backward();
        opt.step();
        loss_value = loss.value().flat(0);
    }
    EXPECT_LT(loss_value, 0.02f);
}

TEST(AutogradDeath, UndefinedVariable)
{
    Variable v;
    EXPECT_DEATH(v.value(), "undefined");
    EXPECT_DEATH(v.backward(), "undefined");
}

} // namespace
