#include "nn/autograd.hh"

#include <unordered_set>

#include "core/profiler.hh"

#include "tensor/ops.hh"
#include "util/logging.hh"

namespace nsbench::nn
{

using tensor::Tensor;

/**
 * Graph node: forward value, accumulated gradient, recorded inputs
 * and the function distributing this node's gradient to them.
 */
struct Variable::Node
{
    Tensor value;
    Tensor grad; ///< Allocated on first accumulation.
    bool requiresGrad = false;
    std::vector<Variable> inputs;
    std::function<void(Node &)> backwardFn;

    /** Adds @p g into this node's gradient (if it participates). */
    void
    accumulate(const Tensor &g)
    {
        if (!requiresGrad)
            return;
        util::panicIf(g.shape() != value.shape(),
                      "autograd: gradient shape mismatch");
        if (grad.empty())
            grad = g.clone();
        else
            tensor::addInPlace(grad, g);
    }
};

Variable::Variable(Tensor value, bool requires_grad)
    : node_(std::make_shared<Node>())
{
    node_->value = std::move(value);
    node_->requiresGrad = requires_grad;
}

const Tensor &
Variable::value() const
{
    util::panicIf(!node_, "Variable::value: undefined variable");
    return node_->value;
}

const Tensor &
Variable::grad() const
{
    util::panicIf(!node_, "Variable::grad: undefined variable");
    if (node_->grad.empty())
        node_->grad = Tensor::zeros(node_->value.shape());
    return node_->grad;
}

bool
Variable::requiresGrad() const
{
    return node_ && node_->requiresGrad;
}

void
Variable::zeroGrad()
{
    if (node_)
        node_->grad = Tensor();
}

void
Variable::applyGradientStep(float lr)
{
    if (!node_ || node_->grad.empty())
        return;
    // In-place SGD update; subScaledInPlace is mul-then-sub, so the
    // result is bit-identical to sub(value, mulScalar(grad, lr)).
    tensor::subScaledInPlace(node_->value, node_->grad, lr);
}

void
Variable::backward()
{
    util::panicIf(!node_, "Variable::backward: undefined variable");

    // Post-order DFS for a topological order of the reachable graph.
    std::vector<Node *> order;
    std::unordered_set<Node *> visited;
    std::vector<std::pair<Node *, size_t>> stack{{node_.get(), 0}};
    visited.insert(node_.get());
    while (!stack.empty()) {
        auto &[node, next] = stack.back();
        if (next < node->inputs.size()) {
            Node *child = node->inputs[next].node_.get();
            next++;
            if (child && !visited.count(child)) {
                visited.insert(child);
                stack.emplace_back(child, 0);
            }
        } else {
            order.push_back(node);
            stack.pop_back();
        }
    }

    node_->accumulate(Tensor::ones(node_->value.shape()));
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        Node *node = *it;
        if (node->backwardFn && node->requiresGrad &&
            !node->grad.empty()) {
            node->backwardFn(*node);
        }
    }
}

Variable
Variable::makeResult(Tensor value, std::vector<Variable> inputs,
                     std::function<void(Node &)> backward)
{
    auto node = std::make_shared<Node>();
    node->value = std::move(value);
    node->inputs = std::move(inputs);
    node->backwardFn = std::move(backward);
    for (const auto &input : node->inputs) {
        if (input.requiresGrad()) {
            node->requiresGrad = true;
            break;
        }
    }
    return Variable(std::move(node));
}

Variable
addV(const Variable &a, const Variable &b)
{
    return Variable::makeResult(
        tensor::add(a.value(), b.value()), {a, b},
        [](Variable::Node &n) {
            n.inputs[0].node_->accumulate(n.grad);
            n.inputs[1].node_->accumulate(n.grad);
        });
}

Variable
subV(const Variable &a, const Variable &b)
{
    return Variable::makeResult(
        tensor::sub(a.value(), b.value()), {a, b},
        [](Variable::Node &n) {
            n.inputs[0].node_->accumulate(n.grad);
            n.inputs[1].node_->accumulate(tensor::neg(n.grad));
        });
}

Variable
mulV(const Variable &a, const Variable &b)
{
    return Variable::makeResult(
        tensor::mul(a.value(), b.value()), {a, b},
        [](Variable::Node &n) {
            n.inputs[0].node_->accumulate(
                tensor::mul(n.grad, n.inputs[1].value()));
            n.inputs[1].node_->accumulate(
                tensor::mul(n.grad, n.inputs[0].value()));
        });
}

Variable
matmulV(const Variable &a, const Variable &b)
{
    return Variable::makeResult(
        tensor::matmul(a.value(), b.value()), {a, b},
        [](Variable::Node &n) {
            n.inputs[0].node_->accumulate(tensor::matmul(
                n.grad, tensor::transpose2d(n.inputs[1].value())));
            n.inputs[1].node_->accumulate(tensor::matmul(
                tensor::transpose2d(n.inputs[0].value()), n.grad));
        });
}

Variable
linearV(const Variable &x, const Variable &w, const Variable &bias)
{
    bool has_bias = bias.defined();
    Tensor out = tensor::linear(x.value(), w.value(),
                                has_bias ? bias.value() : Tensor());
    std::vector<Variable> inputs{x, w};
    if (has_bias)
        inputs.push_back(bias);
    return Variable::makeResult(
        std::move(out), std::move(inputs),
        [has_bias](Variable::Node &n) {
            // y = x W^T (+ b): dx = dy W, dW = dy^T x, db = sum_rows dy.
            n.inputs[0].node_->accumulate(
                tensor::matmul(n.grad, n.inputs[1].value()));
            n.inputs[1].node_->accumulate(tensor::matmul(
                tensor::transpose2d(n.grad), n.inputs[0].value()));
            if (has_bias) {
                n.inputs[2].node_->accumulate(
                    tensor::sumAxis(n.grad, 0));
            }
        });
}

Variable
conv2dV(const Variable &input, const Variable &weight,
        const Variable &bias, int64_t stride, int64_t padding)
{
    bool has_bias = bias.defined();
    Tensor out = tensor::conv2d(input.value(), weight.value(),
                                has_bias ? bias.value() : Tensor(),
                                stride, padding);
    std::vector<Variable> inputs{input, weight};
    if (has_bias)
        inputs.push_back(bias);

    return Variable::makeResult(
        std::move(out), std::move(inputs),
        [has_bias, stride, padding](Variable::Node &node) {
            const Tensor &in = node.inputs[0].value();
            const Tensor &wt = node.inputs[1].value();
            const Tensor &dy = node.grad;

            int64_t n = in.size(0), c = in.size(1);
            int64_t h = in.size(2), w = in.size(3);
            int64_t o = wt.size(0);
            int64_t kh = wt.size(2), kw = wt.size(3);
            int64_t oh = dy.size(2), ow = dy.size(3);

            core::ScopedOp op("conv2d_backward",
                              core::OpCategory::Convolution);
            Tensor d_in(in.shape());
            Tensor d_wt(wt.shape());
            Tensor d_bias = has_bias
                                ? Tensor(node.inputs[2]
                                             .value()
                                             .shape())
                                : Tensor();

            for (int64_t b = 0; b < n; b++) {
                for (int64_t oc = 0; oc < o; oc++) {
                    for (int64_t oy = 0; oy < oh; oy++) {
                        for (int64_t ox = 0; ox < ow; ox++) {
                            float g = dy(b, oc, oy, ox);
                            if (has_bias)
                                d_bias(oc) += g;
                            int64_t iy0 = oy * stride - padding;
                            int64_t ix0 = ox * stride - padding;
                            for (int64_t ic = 0; ic < c; ic++) {
                                for (int64_t ky = 0; ky < kh;
                                     ky++) {
                                    int64_t iy = iy0 + ky;
                                    if (iy < 0 || iy >= h)
                                        continue;
                                    for (int64_t kx = 0; kx < kw;
                                         kx++) {
                                        int64_t ix = ix0 + kx;
                                        if (ix < 0 || ix >= w)
                                            continue;
                                        d_in(b, ic, iy, ix) +=
                                            g *
                                            wt(oc, ic, ky, kx);
                                        d_wt(oc, ic, ky, kx) +=
                                            g *
                                            in(b, ic, iy, ix);
                                    }
                                }
                            }
                        }
                    }
                }
            }

            double macs = static_cast<double>(n * o * oh * ow) *
                          static_cast<double>(c * kh * kw);
            op.setFlops(4.0 * macs);
            op.setBytesRead(
                static_cast<double>(in.numel() + wt.numel() +
                                    dy.numel()) *
                4.0);
            op.setBytesWritten(
                static_cast<double>(in.numel() + wt.numel()) * 4.0);

            node.inputs[0].node_->accumulate(d_in);
            node.inputs[1].node_->accumulate(d_wt);
            if (has_bias)
                node.inputs[2].node_->accumulate(d_bias);
        });
}

Variable
sigmoidV(const Variable &a)
{
    Tensor y = tensor::sigmoid(a.value());
    return Variable::makeResult(
        y, {a}, [](Variable::Node &n) {
            // dy/dx = y (1 - y).
            Tensor one_minus = tensor::sub(
                Tensor::ones(n.value.shape()), n.value);
            n.inputs[0].node_->accumulate(tensor::mul(
                n.grad, tensor::mul(n.value, one_minus)));
        });
}

Variable
tanhV(const Variable &a)
{
    Tensor y = tensor::tanhOp(a.value());
    return Variable::makeResult(
        y, {a}, [](Variable::Node &n) {
            // dy/dx = 1 - y^2.
            Tensor y2 = tensor::mul(n.value, n.value);
            n.inputs[0].node_->accumulate(tensor::mul(
                n.grad,
                tensor::sub(Tensor::ones(n.value.shape()), y2)));
        });
}

Variable
powV(const Variable &a, float exponent)
{
    return Variable::makeResult(
        tensor::powOp(a.value(), exponent), {a},
        [exponent](Variable::Node &n) {
            Tensor dpow = tensor::mulScalar(
                tensor::powOp(n.inputs[0].value(), exponent - 1.0f),
                exponent);
            n.inputs[0].node_->accumulate(
                tensor::mul(n.grad, dpow));
        });
}

Variable
mulScalarV(const Variable &a, float s)
{
    return Variable::makeResult(
        tensor::mulScalar(a.value(), s), {a},
        [s](Variable::Node &n) {
            n.inputs[0].node_->accumulate(
                tensor::mulScalar(n.grad, s));
        });
}

Variable
meanAllV(const Variable &a)
{
    float mean = tensor::meanAll(a.value());
    return Variable::makeResult(
        Tensor({1}, {mean}), {a}, [](Variable::Node &n) {
            const Tensor &input = n.inputs[0].value();
            float g = n.grad.flat(0) /
                      static_cast<float>(input.numel());
            n.inputs[0].node_->accumulate(
                Tensor::full(input.shape(), g));
        });
}

void
SgdOptimizer::addParameter(const Variable &param)
{
    util::panicIf(!param.requiresGrad(),
                  "SgdOptimizer: parameter does not require grad");
    params_.push_back(param);
}

void
SgdOptimizer::step()
{
    for (auto &param : params_) {
        param.applyGradientStep(lr_);
        param.zeroGrad();
    }
}

} // namespace nsbench::nn
