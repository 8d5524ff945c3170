/**
 * @file
 * Extending the suite: characterize your own neuro-symbolic workload.
 *
 * The paper's outlook calls for benchmarking frameworks that let
 * researchers drop in new neuro-symbolic models and obtain the same
 * characterization. This example implements a minimal custom hybrid
 * (a ConvNet digit-ish classifier whose outputs feed a fuzzy rule
 * checker) against the core::Workload interface, registers it, and
 * runs the full report stack over it.
 */

#include <iostream>

#include "core/profiler.hh"
#include "core/report.hh"
#include "core/workload.hh"
#include "logic/fuzzy.hh"
#include "nn/layers.hh"
#include "sim/device.hh"
#include "sim/projection.hh"
#include "tensor/ops.hh"
#include "util/format.hh"
#include "util/rng.hh"

namespace
{

using namespace nsbench;
using tensor::Tensor;

/**
 * A toy Neuro|Symbolic pipeline: perceive a batch of random images,
 * then symbolically check the fuzzy axiom "every image is exactly one
 * class" over the predicted distributions.
 */
class MyHybridWorkload : public core::Workload
{
  public:
    std::string name() const override { return "MyHybrid"; }
    core::Paradigm
    paradigm() const override
    {
        return core::Paradigm::NeuroPipeSymbolic;
    }
    std::string
    taskDescription() const override
    {
        return "toy perception + fuzzy consistency checking";
    }

    void
    setUp(uint64_t seed) override
    {
        rng_ = std::make_unique<util::Rng>(seed);
        net_ = nn::makeConvNet(1, 16, {{8, 3, 1, 1, true}}, {32, 10},
                               *rng_);
        batch_ = Tensor::rand({8, 1, 16, 16}, *rng_);
    }

    void
    runStage(int, core::EpisodeState &state) override
    {
        Tensor probs;
        {
            core::PhaseScope neural(core::Phase::Neural,
                                    "myhybrid/perception");
            probs = net_->forward(tensor::transfer(batch_, "h2d"));
        }
        double sat = 0.0;
        {
            core::PhaseScope symbolic(core::Phase::Symbolic,
                                      "myhybrid/rules");
            // Fuzzy "exactly one class": exists a confident class and
            // the distribution is consistent (sums to one by
            // construction, so check confidence).
            Tensor confidence = tensor::maxAxis(probs, 1);
            sat = logic::pMean(
                std::span<const float>(confidence.data()), 4.0f);
        }
        state.score = sat;
    }

    core::OpGraph
    opGraph() const override
    {
        core::OpGraph g;
        auto in = g.addNode("images", core::Phase::Untagged);
        auto net = g.addNode("myhybrid/perception",
                             core::Phase::Neural);
        auto rules = g.addNode("myhybrid/rules",
                               core::Phase::Symbolic);
        auto out = g.addNode("satisfaction", core::Phase::Untagged);
        g.addEdge(in, net);
        g.addEdge(net, rules);
        g.addEdge(rules, out);
        return g;
    }

    uint64_t
    storageBytes() const override
    {
        return net_ ? net_->paramBytes() : 0;
    }

  private:
    std::unique_ptr<util::Rng> rng_;
    std::unique_ptr<nn::Sequential> net_;
    Tensor batch_;
};

} // namespace

int
main()
{
    using namespace nsbench;

    // Register the custom workload like any built-in one.
    core::WorkloadRegistry::global().add("MyHybrid", [] {
        return std::make_unique<MyHybridWorkload>();
    });

    auto workload = core::WorkloadRegistry::global().create("MyHybrid");
    workload->setUp(1);
    auto &prof = core::globalProfiler();
    prof.reset();
    double score = workload->run();

    std::cout << "custom workload '" << workload->name()
              << "' score: " << util::fixedStr(score, 3) << "\n\n";
    core::phaseBreakdownTable(prof).print(std::cout);
    std::cout << "\n";
    core::topOpsTable(prof, 6).print(std::cout);

    auto proj = sim::projectProfile(sim::rtx2080ti(), prof);
    std::cout << "\nRTX 2080 Ti projection: "
              << util::humanSeconds(proj.totalSeconds) << " (symbolic "
              << util::percentStr(proj.symbolicFraction()) << ")\n";

    auto graph = workload->opGraph();
    for (core::NodeId id = 0; id < graph.size(); id++) {
        graph.node(id).seconds =
            prof.regionTotals(graph.node(id).name).seconds;
    }
    std::cout << "critical-path symbolic share: "
              << util::percentStr(graph.symbolicCriticalFraction())
              << "\n";
    return 0;
}
