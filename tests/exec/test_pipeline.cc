/**
 * @file
 * Stage-pipelined execution: byte-identity, ordering, stage reports
 * and failure propagation.
 *
 * The load-bearing invariant is byte-identity: for every workload
 * and every queue depth, exec::runPipelined must produce exactly the
 * scores of a serial reseedEpisodes + run() loop over the same
 * seeds. CI also runs this suite under TSan, which turns the
 * executor's cross-thread handoffs into checked synchronization.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "exec/pipeline.hh"
#include "serve/presets.hh"
#include "workloads/register.hh"

namespace
{

using namespace nsbench;

std::vector<uint64_t>
seedTrain(int episodes, uint64_t base = 42)
{
    std::vector<uint64_t> seeds;
    for (int i = 0; i < episodes; i++)
        seeds.push_back(exec::episodeSeed(base, i));
    return seeds;
}

/** All seven paper workloads at serve-preset sizes. */
std::vector<std::string>
allWorkloads()
{
    workloads::registerAllWorkloads();
    return {"LNN", "LTN", "NVSA", "NLM", "VSAIT", "ZeroC", "PrAE"};
}

/**
 * Deterministic two-stage workload: stage 0 squares the seed into
 * scratch, stage 1 folds it into a score. Cheap enough to drive
 * long episode trains through every queue depth.
 */
class ToyStaged : public core::Workload
{
  public:
    std::string name() const override { return "ToyStaged"; }
    core::Paradigm paradigm() const override
    {
        return core::Paradigm::NeuroPipeSymbolic;
    }
    std::string taskDescription() const override
    {
        return "two-stage arithmetic toy";
    }
    void setUp(uint64_t seed) override { model_ = seed | 1; }
    void reseedEpisodes(uint64_t seed) override { episode_ = seed; }
    int stageCount() const override { return 2; }
    core::StageSpec
    stageSpec(int stage) const override
    {
        return stage == 0
                   ? core::StageSpec{"square", core::Phase::Neural}
                   : core::StageSpec{"fold", core::Phase::Symbolic};
    }
    void
    runStage(int stage, core::EpisodeState &state) override
    {
        if (stage == 0) {
            state.scratch = std::make_shared<uint64_t>(
                episode_ * episode_ + model_);
        } else {
            auto value =
                std::static_pointer_cast<uint64_t>(state.scratch);
            state.score =
                static_cast<double>(*value % 1000003) / 1000003.0;
            state.scratch.reset();
        }
    }
    core::OpGraph opGraph() const override { return {}; }
    uint64_t storageBytes() const override { return sizeof(model_); }

  private:
    uint64_t model_ = 0;
    uint64_t episode_ = 0;
};

/** Throws from a configurable stage of a configurable episode. */
class FaultyStaged : public ToyStaged
{
  public:
    FaultyStaged(int failStage, int failEpisode)
        : failStage_(failStage), failEpisode_(failEpisode)
    {}
    void
    runStage(int stage, core::EpisodeState &state) override
    {
        if (stage == failStage_ && state.index == failEpisode_)
            throw std::runtime_error("injected stage failure");
        ToyStaged::runStage(stage, state);
    }

  private:
    int failStage_;
    int failEpisode_;
};

TEST(Pipeline, ByteIdenticalToSerialAcrossWorkloadsAndDepths)
{
    for (const std::string &name : allWorkloads()) {
        auto workload = serve::serveFactory(name);
        ASSERT_NE(workload, nullptr) << name;
        workload->setUp(7);
        auto seeds = seedTrain(4);
        std::vector<double> serial =
            exec::runSerialEpisodes(*workload, seeds);
        for (int depth : {1, 2, 4}) {
            exec::PipelineOptions options;
            options.depth = depth;
            exec::PipelineResult piped =
                exec::runPipelined(*workload, seeds, options);
            ASSERT_EQ(piped.scores.size(), serial.size())
                << name << " depth " << depth;
            for (size_t i = 0; i < serial.size(); i++) {
                EXPECT_EQ(piped.scores[i], serial[i])
                    << name << " depth " << depth << " episode "
                    << i;
            }
        }
    }
}

TEST(Pipeline, ByteIdenticalToSerialAtCharacterizationConfigs)
{
    // The registry configs are the characterization sizes the serve
    // presets shrink: NVSA solves three puzzles per episode at hvDim
    // 2048 and PrAE six, so stage 0 hands several perceived puzzles
    // to stage 1 per episode.
    workloads::registerAllWorkloads();
    for (const char *name : {"LNN", "LTN", "NVSA", "NLM", "PrAE"}) {
        auto workload = core::WorkloadRegistry::global().create(name);
        ASSERT_EQ(workload->stageCount(), 2) << name;
        workload->setUp(7);
        auto seeds = seedTrain(2);
        std::vector<double> serial =
            exec::runSerialEpisodes(*workload, seeds);
        exec::PipelineOptions options;
        options.depth = 2;
        exec::PipelineResult piped =
            exec::runPipelined(*workload, seeds, options);
        ASSERT_EQ(piped.scores.size(), serial.size()) << name;
        for (size_t i = 0; i < serial.size(); i++) {
            EXPECT_EQ(std::bit_cast<uint64_t>(piped.scores[i]),
                      std::bit_cast<uint64_t>(serial[i]))
                << name << " episode " << i;
        }
    }
}

TEST(Pipeline, SingleStageWorkloadDegeneratesToSerial)
{
    // VSAIT is a one-stage workload, so it exercises the fused-stage
    // path: one worker, scores still identical.
    auto workload = serve::serveFactory("VSAIT");
    workload->setUp(7);
    ASSERT_EQ(workload->stageCount(), 1);
    auto seeds = seedTrain(3);
    std::vector<double> serial =
        exec::runSerialEpisodes(*workload, seeds);
    exec::PipelineResult piped =
        exec::runPipelined(*workload, seeds);
    EXPECT_EQ(piped.scores, serial);
    ASSERT_EQ(piped.stages.size(), 1u);
}

TEST(Pipeline, LongTrainThroughToyStages)
{
    ToyStaged workload;
    workload.setUp(3);
    auto seeds = seedTrain(64, 100);
    std::vector<double> serial =
        exec::runSerialEpisodes(workload, seeds);
    for (int depth : {1, 2, 7}) {
        exec::PipelineOptions options;
        options.depth = depth;
        exec::PipelineResult piped =
            exec::runPipelined(workload, seeds, options);
        EXPECT_EQ(piped.scores, serial) << "depth " << depth;
    }
}

TEST(Pipeline, StageReportsMatchSpecs)
{
    ToyStaged workload;
    workload.setUp(3);
    exec::PipelineResult piped =
        exec::runPipelined(workload, seedTrain(5));
    ASSERT_EQ(piped.stages.size(), 2u);
    EXPECT_EQ(piped.stages[0].name, "square");
    EXPECT_EQ(piped.stages[0].phase, core::Phase::Neural);
    EXPECT_EQ(piped.stages[1].name, "fold");
    EXPECT_EQ(piped.stages[1].phase, core::Phase::Symbolic);
    ASSERT_EQ(piped.episodeStageSeconds.size(), 5u);
    for (const auto &episode : piped.episodeStageSeconds)
        ASSERT_EQ(episode.size(), 2u);
    EXPECT_GT(piped.wallSeconds, 0.0);
    EXPECT_GT(piped.overlapSpeedup(), 0.0);
}

TEST(Pipeline, EpisodeSeedsAreSequential)
{
    EXPECT_EQ(exec::episodeSeed(42, 0), 42u);
    EXPECT_EQ(exec::episodeSeed(42, 3), 45u);
}

TEST(Pipeline, StageExceptionPropagatesFromEveryStage)
{
    for (int stage : {0, 1}) {
        FaultyStaged workload(stage, 2);
        workload.setUp(3);
        EXPECT_THROW(exec::runPipelined(workload, seedTrain(8),
                                        exec::PipelineOptions{1}),
                     std::runtime_error)
            << "failing stage " << stage;
    }
    // The failure must tear the pipeline down, not wedge it: a
    // full-depth train behind the faulting episode still returns.
    FaultyStaged workload(1, 0);
    workload.setUp(3);
    EXPECT_THROW(exec::runPipelined(workload, seedTrain(32)),
                 std::runtime_error);
}

TEST(Pipeline, PredictedSpeedupModelsDedicatedUnits)
{
    // Perfectly balanced two-stage pipeline -> ~2x for long trains.
    double balanced =
        exec::predictedSpeedup({8.0, 8.0}, /*episodes=*/8);
    EXPECT_GT(balanced, 1.7);
    EXPECT_LE(balanced, 2.0 + 1e-9);
    // A dominant stage caps the win no matter the depth.
    double skewed = exec::predictedSpeedup({1.0, 15.0}, 8);
    EXPECT_LT(skewed, 1.15);
    // One stage cannot overlap with itself.
    EXPECT_DOUBLE_EQ(exec::predictedSpeedup({4.0}, 8), 1.0);
}

} // namespace
