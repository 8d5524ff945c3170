#include "workloads/nlm.hh"

#include <algorithm>
#include <cstring>
#include <memory>

#include "core/profiler.hh"
#include "tensor/ops.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace nsbench::workloads
{

using core::OpCategory;
using core::OpGraph;
using core::Phase;
using core::PhaseScope;
using core::ScopedOp;
using tensor::Shape;
using tensor::Tensor;

namespace
{

/**
 * Copies one c-float channel row and returns the end of the copy.
 * NLM's groups carry a few channels each, so the copy is inlined 16
 * bytes at a time rather than made a library call per row.
 */
inline float *
copyRow(const float *from, int64_t c, float *dst)
{
    int64_t ch = 0;
    for (; ch + 4 <= c; ch += 4)
        std::memcpy(dst + ch, from + ch, 4 * sizeof(float));
    for (; ch < c; ch++)
        dst[ch] = from[ch];
    return dst + c;
}

/**
 * The six permutation rows of nlmExpandBinaryPerms for every (i, j, k).
 * Width is c when c is 1, 2 or 4 (NLM's layers carry 2 and 4): each
 * row is then one fixed-size copy, where copyRow would run its
 * per-float tail below 4. Width 0 copies c floats a row through
 * copyRow.
 */
template <int64_t Width>
void
copyPermRows(const float *src, int64_t n, int64_t c, float *dst)
{
    auto row = [&](int64_t a, int64_t b) { return src + (a * n + b) * c; };
    for (int64_t i = 0; i < n; i++) {
        for (int64_t j = 0; j < n; j++) {
            for (int64_t k = 0; k < n; k++) {
                for (const float *from : {row(i, j), row(i, k),
                                          row(j, i), row(j, k),
                                          row(k, i), row(k, j)}) {
                    if constexpr (Width > 0) {
                        std::memcpy(dst, from, Width * sizeof(float));
                        dst += Width;
                    } else {
                        dst = copyRow(from, c, dst);
                    }
                }
            }
        }
    }
}

} // namespace

Tensor
nlmExpandUnary(const Tensor &unary)
{
    ScopedOp op("nlm_expand", OpCategory::DataTransform);
    int64_t n = unary.size(0);
    int64_t c = unary.size(1);
    // Every element is one of the row copies below.
    Tensor out = Tensor::uninitialized({n, n, 2 * c});
    const float *src = unary.data().data();
    float *dst = out.data().data();
    for (int64_t i = 0; i < n; i++) {
        for (int64_t j = 0; j < n; j++) {
            dst = copyRow(src + i * c, c, dst);
            dst = copyRow(src + j * c, c, dst);
        }
    }
    op.setBytesRead(static_cast<double>(unary.numel()) * 4.0);
    op.setBytesWritten(static_cast<double>(out.numel()) * 4.0);
    return out;
}

Tensor
nlmExpandBinaryPerms(const Tensor &binary)
{
    ScopedOp op("nlm_expand", OpCategory::DataTransform);
    int64_t n = binary.size(0);
    int64_t c = binary.size(2);
    // Every element is one of the row copies below.
    Tensor out = Tensor::uninitialized({n, n, n, 6 * c});
    const float *src = binary.data().data();
    float *dst = out.data().data();
    switch (c) {
    case 1:
        copyPermRows<1>(src, n, c, dst);
        break;
    case 2:
        copyPermRows<2>(src, n, c, dst);
        break;
    case 4:
        copyPermRows<4>(src, n, c, dst);
        break;
    default:
        copyPermRows<0>(src, n, c, dst);
        break;
    }
    op.setBytesRead(static_cast<double>(out.numel()) * 4.0);
    op.setBytesWritten(static_cast<double>(out.numel()) * 4.0);
    return out;
}

namespace
{

/** Gate steepness for the constructed boolean MLPs. */
constexpr float gateGain = 8.0f;

/** Binary-group argument permutations: channels [B_ij..., B_ji...]. */
Tensor
permuteBinary(const Tensor &binary)
{
    Tensor swapped = tensor::permute(binary, {1, 0, 2});
    return tensor::concat({binary, swapped}, 2);
}

/**
 * Reduce a ternary group over its last object index with both
 * exists (max) and forall (min) semantics: channels [max..., min...].
 */
Tensor
reduceTernary(const Tensor &ternary)
{
    Tensor mx = tensor::maxAxis(ternary, 2);
    Tensor mn = tensor::neg(tensor::maxAxis(tensor::neg(ternary), 2));
    return tensor::concat({mx, mn}, 2);
}

/** Per-position linear + sigmoid over the channel dimension. */
Tensor
applyMlp(const Tensor &wired, const Tensor &weight, const Tensor &bias)
{
    int64_t c_in = wired.shape().back();
    int64_t positions = wired.numel() / c_in;
    Tensor flat = wired.reshaped({positions, c_in});
    Tensor out = tensor::sigmoid(tensor::linear(flat, weight, bias));
    Shape out_shape = wired.shape();
    out_shape.back() = weight.size(0);
    return out.reshaped(out_shape);
}

} // namespace

void
NlmWorkload::setUp(uint64_t seed)
{
    util::Rng rng(seed);
    graphs_.clear();
    for (int e = 0; e < config_.episodes; e++) {
        graphs_.push_back(data::makeFamilyGraph(
            config_.generations, config_.peoplePerGeneration, rng));
    }

    bases_.clear();
    for (const data::FamilyGraph &graph : graphs_)
        bases_.push_back({graph.unaryTensor(), graph.binaryTensor()});

    // ---- Constructed program weights (trained stand-in).
    layers_.assign(2, LayerWeights{});

    // Layer 1. Binary input channels: 0=parent, 1=eye.
    // Ternary input channel p*2+c with the pair order documented at
    // nlmExpandBinaryPerms.
    {
        LayerWeights &l = layers_[0];
        l.ternaryW = Tensor::zeros({2, 12});
        l.ternaryB = Tensor::zeros({2});
        // out0 = AND(parent[i,k], parent[k,j])  (grandparent path)
        l.ternaryW(0, 1 * 2 + 0) = gateGain;  // parent@(i,k)
        l.ternaryW(0, 5 * 2 + 0) = gateGain;  // parent@(k,j)
        l.ternaryB(0) = -1.5f * gateGain;
        // out1 = AND(parent[k,i], parent[k,j], NOT eye[i,j])
        l.ternaryW(1, 4 * 2 + 0) = gateGain;  // parent@(k,i)
        l.ternaryW(1, 5 * 2 + 0) = gateGain;  // parent@(k,j)
        l.ternaryW(1, 0 * 2 + 1) = -2.0f * gateGain; // eye@(i,j)
        l.ternaryB(1) = -1.5f * gateGain;

        // Binary input channels: perms [parent_ij, eye_ij,
        // parent_ji, eye_ji] (0-3), unary [u_i, u_j] (4-5), reduced
        // [max gp, max sib, min gp, min sib] (6-9).
        l.binaryW = Tensor::zeros({4, 10});
        l.binaryB = Tensor::zeros({4});
        auto passthrough = [&](int64_t out, int64_t in) {
            l.binaryW(out, in) = 2.0f * gateGain;
            l.binaryB(out) = -gateGain;
        };
        passthrough(0, 0); // parent
        passthrough(1, 1); // eye
        passthrough(2, 6); // grandparent = exists_k gp_path
        passthrough(3, 7); // sibling = exists_k sib_path
    }

    // Layer 2. Binary input channels now: 0=parent, 1=eye,
    // 2=grandparent, 3=sibling.
    {
        LayerWeights &l = layers_[1];
        l.ternaryW = Tensor::zeros({1, 24});
        l.ternaryB = Tensor::zeros({1});
        // out0 = AND(sibling[i,k], parent[k,j])  (uncle path)
        l.ternaryW(0, 1 * 4 + 3) = gateGain;  // sibling@(i,k)
        l.ternaryW(0, 5 * 4 + 0) = gateGain;  // parent@(k,j)
        l.ternaryB(0) = -1.5f * gateGain;

        // Binary inputs: perms (0-7), unary (8-9), reduced max (10),
        // min (11).
        l.binaryW = Tensor::zeros({3, 12});
        l.binaryB = Tensor::zeros({3});
        auto passthrough = [&](int64_t out, int64_t in) {
            l.binaryW(out, in) = 2.0f * gateGain;
            l.binaryB(out) = -gateGain;
        };
        passthrough(0, 2);  // grandparent carried through
        passthrough(1, 3);  // sibling carried through
        passthrough(2, 10); // uncle = exists_k uncle_path
    }
}

uint64_t
NlmWorkload::storageBytes() const
{
    uint64_t bytes = 0;
    for (const auto &l : layers_) {
        bytes += l.ternaryW.bytes() + l.ternaryB.bytes() +
                 l.binaryW.bytes() + l.binaryB.bytes();
    }
    return bytes;
}

Tensor
NlmWorkload::baseBinary(const NlmBasePredicates &base)
{
    const Tensor &parent = base.binary;
    int64_t n = parent.size(0);

    // Base binary channels: parent plus the equality predicate.
    PhaseScope symbolic(Phase::Symbolic, "nlm/wiring");
    Tensor eye({n, n, 1});
    for (int64_t i = 0; i < n; i++)
        eye(i, i, 0) = 1.0f;
    return tensor::concat({parent, eye}, 2);
}

Tensor
NlmWorkload::evaluateLayer(const Tensor &unary, const Tensor &binary,
                           const LayerWeights &layer)
{
    Tensor tern_in, bin_in;
    Tensor tern_out;
    {
        PhaseScope symbolic(Phase::Symbolic, "nlm/wiring");
        tern_in = nlmExpandBinaryPerms(binary);
    }
    {
        PhaseScope neural(Phase::Neural, "nlm/mlp");
        tern_out =
            applyMlp(tern_in, layer.ternaryW, layer.ternaryB);
    }
    {
        PhaseScope symbolic(Phase::Symbolic, "nlm/wiring");
        Tensor reduced = reduceTernary(tern_out);
        bin_in = tensor::concat(
            {permuteBinary(binary), nlmExpandUnary(unary), reduced},
            2);
    }
    PhaseScope neural(Phase::Neural, "nlm/mlp");
    return applyMlp(bin_in, layer.binaryW, layer.binaryB);
}

double
NlmWorkload::scoreGraph(const data::FamilyGraph &graph,
                        const Tensor &binary)
{
    int64_t n = binary.size(0);

    // Score: mean IoU of the three derived relations.
    Tensor target = graph.targetTensor();
    util::panicIf(binary.shape() != target.shape(),
                  "NLM: output/target shape mismatch");
    double iou_sum = 0.0;
    for (int64_t ch = 0; ch < 3; ch++) {
        int64_t inter = 0, uni = 0;
        for (int64_t i = 0; i < n; i++) {
            for (int64_t j = 0; j < n; j++) {
                bool pred = binary(i, j, ch) > 0.5f;
                bool truth = target(i, j, ch) > 0.5f;
                inter += (pred && truth) ? 1 : 0;
                uni += (pred || truth) ? 1 : 0;
            }
        }
        iou_sum += uni == 0 ? 1.0
                            : static_cast<double>(inter) /
                                  static_cast<double>(uni);
    }
    return iou_sum / 3.0;
}

core::StageSpec
NlmWorkload::stageSpec(int stage) const
{
    // Both layers interleave symbolic wiring with neural MLPs, so
    // neither stage has a single dominant phase.
    return stage == 0
               ? core::StageSpec{"layer1", Phase::Untagged}
               : core::StageSpec{"layer2", Phase::Untagged};
}

void
NlmWorkload::runStage(int stage, core::EpisodeState &state)
{
    // NLM is seed-insensitive and consumes no RNG: both stages
    // are pure in the fixed graphs/weights plus the handed-off
    // binary groups.
    if (stage == 0) {
        util::panicIf(graphs_.empty(), "NLM: setUp() not called");
        auto scratch = std::make_shared<EpisodeScratch>();
        scratch->binaries.reserve(graphs_.size());
        for (size_t i = 0; i < graphs_.size(); i++) {
            Tensor binary = baseBinary(bases_[i]);
            scratch->binaries.push_back(evaluateLayer(
                bases_[i].unary, binary, layers_[0]));
        }
        state.scratch = std::move(scratch);
        return;
    }
    auto scratch =
        std::static_pointer_cast<EpisodeScratch>(state.scratch);
    double total = 0.0;
    for (size_t i = 0; i < graphs_.size(); i++) {
        Tensor binary = evaluateLayer(
            bases_[i].unary, scratch->binaries[i], layers_[1]);
        total += scoreGraph(graphs_[i], binary);
    }
    state.scratch.reset();
    state.score = total / static_cast<double>(graphs_.size());
}

OpGraph
NlmWorkload::opGraph() const
{
    OpGraph g;
    auto input = g.addNode("base_predicates", Phase::Untagged);
    auto wiring = g.addNode("nlm/wiring", Phase::Symbolic);
    auto mlp = g.addNode("nlm/mlp", Phase::Neural);
    auto out = g.addNode("derived_relations", Phase::Untagged);
    g.addEdge(input, wiring);
    g.addEdge(wiring, mlp);
    g.addEdge(mlp, out);
    return g;
}


} // namespace nsbench::workloads
