#include "exec/pipeline.hh"

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "core/opgraph.hh"
#include "serve/queue.hh"
#include "sim/schedule.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

namespace nsbench::exec
{

using core::EpisodeState;
using core::Phase;
using core::Profiler;
using core::StageSpec;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/** Shared shutdown state: first exception wins, everyone stops. */
struct Abort
{
    std::mutex mu;
    std::exception_ptr error;
    std::atomic<bool> flag{false};

    void
    trip(std::exception_ptr e)
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            if (!error)
                error = e;
        }
        flag.store(true, std::memory_order_release);
    }

    bool
    tripped() const
    {
        return flag.load(std::memory_order_acquire);
    }
};

} // namespace

double
PipelineResult::busySeconds() const
{
    double total = 0.0;
    for (const StageReport &stage : stages)
        total += stage.busySeconds;
    return total;
}

uint64_t
episodeSeed(uint64_t base, int index)
{
    return base + static_cast<uint64_t>(index);
}

PipelineResult
runPipelined(core::Workload &workload,
             const std::vector<uint64_t> &seeds,
             const PipelineOptions &options)
{
    util::panicIf(seeds.empty(),
                  "runPipelined: need at least one episode");
    util::panicIf(options.depth < 1,
                  "runPipelined: queue depth must be positive");
    int stage_count = workload.stageCount();
    util::panicIf(stage_count < 1,
                  "runPipelined: stageCount() must be positive");

    auto episodes = static_cast<int>(seeds.size());
    PipelineResult result;
    result.scores.assign(seeds.size(), 0.0);
    result.episodeStageSeconds.assign(
        seeds.size(),
        std::vector<double>(static_cast<size_t>(stage_count), 0.0));

    // One private profiler and busy counter per stage; stage workers
    // write disjoint slots, so no locks are needed on the result.
    std::vector<std::unique_ptr<Profiler>> profilers;
    std::vector<double> busy(static_cast<size_t>(stage_count), 0.0);
    for (int s = 0; s < stage_count; s++)
        profilers.push_back(std::make_unique<Profiler>());

    // queues[s] feeds stage s+1.
    using Queue = serve::BoundedQueue<EpisodeState>;
    std::vector<std::unique_ptr<Queue>> queues;
    for (int s = 0; s + 1 < stage_count; s++) {
        queues.push_back(std::make_unique<Queue>(
            static_cast<size_t>(options.depth)));
    }

    Abort abort;
    auto close_all = [&queues] {
        for (auto &queue : queues)
            queue->close();
    };

    auto worker = [&](int stage) {
        // Kernels inside runStage execute inline on this thread;
        // parallelism comes from stage overlap, and profiler
        // attribution stays exact per stage.
        util::ThreadPool::SerialScope serial;
        Profiler::ThreadTargetScope target(
            *profilers[static_cast<size_t>(stage)]);

        bool last = stage == stage_count - 1;
        auto finish = [&](EpisodeState &&state, double dt) {
            busy[static_cast<size_t>(stage)] += dt;
            result.episodeStageSeconds[static_cast<size_t>(
                state.index)][static_cast<size_t>(stage)] = dt;
            if (last) {
                result.scores[static_cast<size_t>(state.index)] =
                    state.score;
                return true;
            }
            return queues[static_cast<size_t>(stage)]->push(
                std::move(state));
        };

        if (stage == 0) {
            for (int i = 0; i < episodes; i++) {
                if (abort.tripped())
                    break;
                EpisodeState state;
                state.seed = seeds[static_cast<size_t>(i)];
                state.index = i;
                auto start = Clock::now();
                try {
                    workload.reseedEpisodes(state.seed);
                    workload.runStage(0, state);
                } catch (...) {
                    abort.trip(std::current_exception());
                    close_all();
                    break;
                }
                if (!finish(std::move(state), secondsSince(start)))
                    break;
            }
            if (!queues.empty())
                queues[0]->close();
        } else {
            Queue &in = *queues[static_cast<size_t>(stage - 1)];
            while (auto state = in.pop()) {
                if (abort.tripped())
                    break;
                auto start = Clock::now();
                try {
                    workload.runStage(stage, *state);
                } catch (...) {
                    abort.trip(std::current_exception());
                    close_all();
                    break;
                }
                if (!finish(std::move(*state),
                            secondsSince(start)))
                    break;
            }
            if (stage < stage_count - 1)
                queues[static_cast<size_t>(stage)]->close();
        }
    };

    auto wall_start = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(stage_count));
    for (int s = 0; s < stage_count; s++)
        threads.emplace_back(worker, s);
    for (std::thread &thread : threads)
        thread.join();
    result.wallSeconds = secondsSince(wall_start);

    if (abort.flag.load())
        std::rethrow_exception(abort.error);

    for (int s = 0; s < stage_count; s++) {
        StageSpec spec = workload.stageSpec(s);
        StageReport report;
        report.name = spec.name;
        report.phase = spec.phase;
        report.busySeconds = busy[static_cast<size_t>(s)];
        const Profiler &profiler = *profilers[static_cast<size_t>(s)];
        report.neural = profiler.phaseTotals(Phase::Neural);
        report.symbolic = profiler.phaseTotals(Phase::Symbolic);
        result.stages.push_back(std::move(report));
    }
    return result;
}

std::vector<double>
runSerialEpisodes(core::Workload &workload,
                  const std::vector<uint64_t> &seeds)
{
    util::ThreadPool::SerialScope serial;
    std::vector<double> scores;
    scores.reserve(seeds.size());
    for (uint64_t seed : seeds) {
        workload.reseedEpisodes(seed);
        scores.push_back(workload.run());
    }
    return scores;
}

double
predictedSpeedup(const std::vector<double> &stageSeconds,
                 int episodes)
{
    util::panicIf(stageSeconds.empty(),
                  "predictedSpeedup: need at least one stage");
    util::panicIf(episodes < 1,
                  "predictedSpeedup: need at least one episode");

    // Model the executor exactly: each stage gets a dedicated unit.
    // Stages alternate between the simulator's two unit kinds, with
    // enough units of each kind that same-kind stages never contend
    // — chain dependencies already serialize consecutive stages.
    core::OpGraph graph;
    int neural_units = 0, symbolic_units = 0;
    core::NodeId prev = 0;
    for (size_t s = 0; s < stageSeconds.size(); s++) {
        Phase kind = s % 2 == 0 ? Phase::Neural : Phase::Symbolic;
        if (kind == Phase::Neural)
            neural_units++;
        else
            symbolic_units++;
        core::NodeId id = graph.addNode(
            "stage" + std::to_string(s), kind,
            stageSeconds[s] / static_cast<double>(episodes));
        if (s > 0)
            graph.addEdge(prev, id);
        prev = id;
    }
    sim::ScheduleConfig config;
    config.neuralUnits = std::max(neural_units, 1);
    config.symbolicUnits = std::max(symbolic_units, 1);
    return sim::pipelineSchedule(graph, config, episodes).speedup();
}

} // namespace nsbench::exec
