/**
 * @file
 * Stage-pipelined workload execution (the paper's Recommendation 5,
 * for real).
 *
 * sim/schedule.{hh,cc} *predicts* the win from overlapping neural
 * perception of episode i+1 with symbolic reasoning of episode i;
 * this module builds that overlap on the actual runtime. A workload
 * that implements the staged interface (Workload::stageCount() > 1)
 * runs each stage on its own worker thread, with bounded FIFO queues
 * carrying EpisodeState between consecutive stages, so up to
 * stageCount() episodes are in flight at once.
 *
 * Determinism: the stage-0 worker calls reseedEpisodes(seed_i)
 * immediately before runStage(0) of episode i, and episodes flow
 * through every stage in submission order. Because stage 0 consumes
 * the whole per-episode RNG stream (the staged-interface contract)
 * and later stages are pure in the handed-off state plus immutable
 * model structures, the per-episode scores are byte-identical to a
 * serial reseedEpisodes + run() loop over the same seeds — the
 * tests/exec suite enforces exactly this.
 */

#ifndef NSBENCH_EXEC_PIPELINE_HH
#define NSBENCH_EXEC_PIPELINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/profiler.hh"
#include "core/workload.hh"

namespace nsbench::exec
{

/** Pipelined-execution knobs. */
struct PipelineOptions
{
    /**
     * Capacity of each inter-stage queue. Depth 1 is strict
     * lockstep; larger depths let a fast stage run ahead of a slow
     * one, smoothing per-episode duration jitter at the cost of
     * (depth x episode-state) peak memory per queue. Throughput is
     * bottlenecked by the slowest stage either way.
     */
    int depth = 2;
};

/** One stage's aggregate execution record. */
struct StageReport
{
    std::string name;                        ///< StageSpec name.
    core::Phase phase = core::Phase::Untagged; ///< StageSpec phase.
    double busySeconds = 0.0; ///< Total time inside runStage().
    core::OpStats neural;     ///< Stage-profiler neural totals.
    core::OpStats symbolic;   ///< Stage-profiler symbolic totals.
};

/** Outcome of one pipelined multi-episode execution. */
struct PipelineResult
{
    /** Per-episode scores, in submission order. */
    std::vector<double> scores;
    /** seconds[episode][stage] spent inside that runStage call. */
    std::vector<std::vector<double>> episodeStageSeconds;
    /** End-to-end wall time across all episodes. */
    double wallSeconds = 0.0;
    /** Per-stage aggregates, index = stage. */
    std::vector<StageReport> stages;

    /** Sum of stage busy time — the serial-equivalent work. */
    double busySeconds() const;

    /** Measured overlap: serial-equivalent work over wall time. */
    double
    overlapSpeedup() const
    {
        return wallSeconds > 0.0 ? busySeconds() / wallSeconds : 1.0;
    }
};

/** Seed of pipeline episode @p index over @p base (base + index). */
uint64_t episodeSeed(uint64_t base, int index);

/**
 * Runs one episode per entry of @p seeds through the workload's
 * stage pipeline. Works for any workload: single-stage workloads
 * degenerate to a serial loop on one worker thread. Stage workers
 * pin themselves with ThreadPool::SerialScope, so kernels inside
 * runStage execute inline — parallelism comes from stage overlap,
 * not from nested pools. Rethrows the first stage exception after
 * shutting the pipeline down.
 */
PipelineResult runPipelined(core::Workload &workload,
                            const std::vector<uint64_t> &seeds,
                            const PipelineOptions &options = {});

/**
 * The serial baseline the byte-identity gate compares against: a
 * reseedEpisodes + run() loop over the same seeds on one pinned
 * thread.
 */
std::vector<double>
runSerialEpisodes(core::Workload &workload,
                  const std::vector<uint64_t> &seeds);

/**
 * sim::pipelineSchedule's predicted speedup for a pipeline whose
 * stage s measured @p stageSeconds[s] of busy time across
 * @p episodes episodes. The model gives every stage a dedicated
 * execution unit — exactly the executor's one-thread-per-stage shape
 * — so measured overlapSpeedup() can be compared against it
 * directly (the paper's model-vs-reality payoff).
 */
double predictedSpeedup(const std::vector<double> &stageSeconds,
                        int episodes);

} // namespace nsbench::exec

#endif // NSBENCH_EXEC_PIPELINE_HH
