/**
 * @file
 * Shared helpers for the per-figure bench binaries.
 */

#ifndef NSBENCH_BENCH_COMMON_HH
#define NSBENCH_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "core/profiler.hh"
#include "core/workload.hh"
#include "util/stats.hh"

namespace nsbench::bench
{

/** Result of one profiled workload execution. */
struct ProfiledRun
{
    std::string name;       ///< Workload name.
    double score = 0.0;     ///< Task-quality score in [0, 1].
    double wallSeconds = 0.0; ///< Wall time of run().
    uint64_t storageBytes = 0; ///< Persistent model bytes.
    core::Profiler profile; ///< Captured op stream.
};

/**
 * Instantiates, seeds and runs one registered workload, capturing its
 * op stream. The global profiler is left reset.
 */
ProfiledRun profileWorkload(const std::string &name,
                            uint64_t seed = 42);

/** Runs a pre-built workload the same way. */
ProfiledRun profileWorkload(core::Workload &workload,
                            uint64_t seed = 42);

/**
 * Profiled runs behind each host-measured cell of Fig. 2a and 3a. One
 * run's host shares swing by tens of points on a shared host, so
 * those benches print the median of this many.
 */
constexpr int kMedianRuns = 5;

/** kMedianRuns profileWorkload runs of one registered workload, at
 *  pool width 1 (util::ThreadPool::SerialScope). */
std::vector<ProfiledRun> profileRuns(const std::string &name);

/** Median over @p runs of the cell value @p cell computes per run. */
template <class Cell>
double
medianOf(const std::vector<ProfiledRun> &runs, Cell cell)
{
    std::vector<double> values;
    values.reserve(runs.size());
    for (const ProfiledRun &run : runs)
        values.push_back(cell(run));
    return util::percentile(std::move(values), 50.0);
}

/** The seven paper workloads in the paper's presentation order. */
const std::vector<std::string> &paperOrder();

/** Prints the standard bench header with the figure/table reference. */
void printHeader(const std::string &title, const std::string &paper_ref);

/**
 * One-line JSON object describing this run's provenance: the git
 * commit and build type baked in at configure time, plus the
 * runtime-selected knobs (threads, simd backend, cache enablement)
 * read at call time.
 */
std::string runMetadataJson();

/**
 * Machine-readable result emission: writes @p json to @p path with
 * runMetadataJson() injected as a leading "meta" field, so archived
 * results carry their provenance. An empty @p path is a no-op.
 */
void writeBenchJson(const std::string &path, const std::string &json);

/**
 * The bench-main form: when the bench was invoked with `--json <path>`
 * (or `--json=<path>`), writes @p json — the same payload the bench
 * prints on its BENCH_JSON stdout line — to that file. @p argv[0] is
 * the program name. Without the flag this is a no-op, so benches call
 * it unconditionally.
 */
void writeBenchJson(int argc, char **argv, const std::string &json);

} // namespace nsbench::bench

#endif // NSBENCH_BENCH_COMMON_HH
