/**
 * @file
 * Reverse-mode automatic differentiation.
 *
 * The paper's Tab. III lists supervised/unsupervised training
 * approaches for every workload, and its outlook asks for software
 * frameworks with differentiable logic structures. This module adds a
 * small dynamic-graph autograd over the instrumented tensor ops:
 * enough to train LTN-style predicate groundings by maximizing fuzzy
 * theory satisfaction (see examples/ltn_training.cpp). Forward and
 * backward passes run through the same profiled tensor kernels, so
 * training runs are characterized exactly like inference runs.
 */

#ifndef NSBENCH_NN_AUTOGRAD_HH
#define NSBENCH_NN_AUTOGRAD_HH

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.hh"

namespace nsbench::nn
{

/**
 * A node of the dynamically-recorded computation graph. Users hold
 * Variable handles; nodes stay alive as long as some downstream
 * Variable references them.
 */
class Variable
{
  public:
    /** An empty (detached, valueless) variable. */
    Variable() = default;

    /**
     * Wraps a tensor as a graph leaf.
     * @param requires_grad Leaves with true accumulate gradients.
     */
    explicit Variable(tensor::Tensor value, bool requires_grad = false);

    /** True when the handle refers to a node. */
    bool defined() const { return node_ != nullptr; }

    /** Forward value. */
    const tensor::Tensor &value() const;

    /**
     * Accumulated gradient; zeros of the value's shape before any
     * backward() reaches this node.
     */
    const tensor::Tensor &grad() const;

    /** Whether gradients flow into this node. */
    bool requiresGrad() const;

    /**
     * Runs reverse-mode differentiation from this (scalar) variable:
     * seeds d(this)/d(this) = 1 and accumulates into every reachable
     * leaf with requiresGrad.
     */
    void backward();

    /** Clears this node's accumulated gradient. */
    void zeroGrad();

    /**
     * In-place descent step value -= lr * grad; used by optimizers.
     * No-op when no gradient has been accumulated.
     */
    void applyGradientStep(float lr);

    /** @name Graph-building operations. Shapes follow tensor/ops.hh.
     *  @{ */
    friend Variable addV(const Variable &a, const Variable &b);
    friend Variable subV(const Variable &a, const Variable &b);
    friend Variable mulV(const Variable &a, const Variable &b);
    friend Variable matmulV(const Variable &a, const Variable &b);
    /** y = x W^T + bias; pass an undefined bias to skip it. */
    friend Variable linearV(const Variable &x, const Variable &w,
                            const Variable &bias);
    /**
     * NCHW convolution with gradients for input, weight and the
     * optional bias (pass an undefined bias to skip it).
     */
    friend Variable conv2dV(const Variable &input,
                            const Variable &weight,
                            const Variable &bias, int64_t stride,
                            int64_t padding);
    friend Variable sigmoidV(const Variable &a);
    friend Variable tanhV(const Variable &a);
    /** Element-wise power with a constant, positive-base exponent. */
    friend Variable powV(const Variable &a, float exponent);
    friend Variable mulScalarV(const Variable &a, float s);
    /** Mean over all elements, as a [1] tensor. */
    friend Variable meanAllV(const Variable &a);
    /** @} */

  private:
    struct Node;
    std::shared_ptr<Node> node_;

    explicit Variable(std::shared_ptr<Node> node)
        : node_(std::move(node))
    {}

    static Variable makeResult(tensor::Tensor value,
                               std::vector<Variable> inputs,
                               std::function<void(Node &)> backward);
};

/**
 * Plain stochastic gradient descent over leaf variables.
 */
class SgdOptimizer
{
  public:
    /** @param lr Learning rate. */
    explicit SgdOptimizer(float lr) : lr_(lr) {}

    /** Registers a trainable leaf. */
    void addParameter(const Variable &param);

    /** Applies one descent step and clears gradients. */
    void step();

  private:
    float lr_;
    std::vector<Variable> params_;
};

} // namespace nsbench::nn

#endif // NSBENCH_NN_AUTOGRAD_HH
