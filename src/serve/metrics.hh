/**
 * @file
 * Serving SLO metrics: latency tails, throughput counters, phase split.
 *
 * One thread-safe ServerMetrics instance per Server accumulates the
 * outcome of every request — admissions, rejections by cause, expiry,
 * completions with end-to-end latency, queue wait, service time and
 * the profiler's neural/symbolic split — per workload and in total.
 * Latency tails (p50/p95/p99) come from util::TailStats streaming
 * estimators, so the accounting is O(1) per request no matter how
 * long the server runs.
 *
 * Every counter is a WorkloadMetrics or NetStats field bumped through
 * count(), statusRow() classifies every status, and the reports render
 * from the field lists in metrics.cc (util/fields.hh).
 */

#ifndef NSBENCH_SERVE_METRICS_HH
#define NSBENCH_SERVE_METRICS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "serve/request.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace nsbench::serve
{

/**
 * Aggregated outcome counters and latency accumulators for one
 * workload (or the all-workloads total). Plain value type; snapshots
 * are copies.
 */
struct WorkloadMetrics
{
    uint64_t submitted = 0;          ///< Admitted into the queue.
    uint64_t completed = 0;          ///< Finished with status Ok.
    uint64_t rejectedQueueFull = 0;  ///< Backpressure rejections.
    uint64_t rejectedDeadline = 0;   ///< Dead-on-arrival rejections.
    uint64_t rejectedShutdown = 0;   ///< Rejected while draining.
    uint64_t rejectedUnknown = 0;    ///< Unknown-workload rejections.
    uint64_t rejectedOverload = 0;   ///< Shed by the overload gate.
    uint64_t rejectedUnreachable = 0;///< No reachable server (net layer).
    uint64_t expired = 0;            ///< Admitted but expired in queue.
    uint64_t canceled = 0;           ///< Abandoned by the submitter
                                     ///< and pruned before execution.
    uint64_t failed = 0;             ///< Failed after every retry.
    uint64_t executions = 0;         ///< Actual run() invocations.
    uint64_t batches = 0;            ///< Flights dispatched to workers.
    uint64_t cacheHits = 0;          ///< Result-cache hits at admission.
    uint64_t cacheMisses = 0;        ///< Result-cache misses.
    uint64_t cacheEvictions = 0;     ///< Result-cache entries evicted.
    uint64_t singleFlightShared = 0; ///< Followers fanned a leader's result.
    uint64_t workerFaults = 0;       ///< run() attempts that threw.
    uint64_t retries = 0;            ///< Re-attempts after a fault.
    uint64_t retriedOk = 0;          ///< Completions that needed a retry.
    uint64_t replicasReplaced = 0;   ///< Supervisor replica rebuilds.
    uint64_t callbackFailures = 0;   ///< Client callbacks that threw.
    uint64_t sojournSheds = 0;       ///< Overload sheds triggered by
                                     ///< the adaptive sojourn gate (a
                                     ///< subset of rejectedOverload).

    util::TailStats latency;         ///< End-to-end seconds (Ok only).
    util::RunningStat queueWait;     ///< Submit -> execution start.
    util::RunningStat service;       ///< run() wall seconds/execution.
    util::RunningStat batchOccupancy;///< Requests answered per
                                     ///< dispatched flight.
    double neuralSeconds = 0.0;      ///< Summed neural-phase op time.
    double symbolicSeconds = 0.0;    ///< Summed symbolic-phase op time.

    /** Total admission-time rejections (every rejection status). */
    uint64_t rejected() const;

    /**
     * Every request that reached admission: the admitted plus every
     * rejection. Offered load is the correct denominator for
     * acceptance/goodput math — `completed` must never be divided by
     * a window that silently includes queue-full rejects.
     */
    uint64_t offered() const { return submitted + rejected(); }

    /**
     * Fraction of requests that reached execution and eventually
     * completed Ok: 1.0 means the resilience layer absorbed every
     * injected fault.
     */
    double
    successRate() const
    {
        uint64_t finished = completed + failed;
        return finished ? static_cast<double>(completed) /
                              static_cast<double>(finished)
                        : 1.0;
    }

    /** Completions per execution; 1.0 when nothing coalesced. */
    double
    shareFactor() const
    {
        return executions
                   ? static_cast<double>(completed) /
                         static_cast<double>(executions)
                   : 0.0;
    }

    /** Neural fraction of attributed phase time. */
    double
    neuralFraction() const
    {
        double total = neuralSeconds + symbolicSeconds;
        return total > 0.0 ? neuralSeconds / total : 0.0;
    }

    /** Result-cache hit fraction of all lookups; 0 when uncached. */
    double
    cacheHitRate() const
    {
        uint64_t lookups = cacheHits + cacheMisses;
        return lookups ? static_cast<double>(cacheHits) /
                             static_cast<double>(lookups)
                       : 0.0;
    }
};

/**
 * How a request that ended in one RequestStatus is named and
 * counted. The one classification every consumer shares:
 * statusName(), isRejection(), WorkloadMetrics::rejected(), the
 * ServerMetrics recorders and the load generator's tallies.
 */
struct StatusRow
{
    const char *name;                   ///< statusName().
    uint64_t WorkloadMetrics::*counter; ///< Where it is counted.
    bool rejection;                     ///< Refused at admission.
};

/** The table row of @p status. */
const StatusRow &statusRow(RequestStatus status);

/**
 * Connection-level counters of the TCP front end (src/net/). These
 * are transport facts, not per-workload outcomes, so they live next
 * to — not inside — the WorkloadMetrics aggregates; the net layer
 * folds them into the same ServerMetrics instance so one snapshot
 * captures the whole serving picture. The byte counters sit on the
 * read/write path of every connection, so they are bumped lock-free
 * (util::bump), never under the outcome mutex.
 */
struct NetStats
{
    uint64_t connectionsAccepted = 0; ///< Sockets accepted.
    uint64_t connectionsClosed = 0;   ///< Sockets closed (any cause).
    uint64_t bytesRead = 0;           ///< Payload bytes received.
    /// Bytes of the frames counted in framesOut, counted with them when
    /// queued: once a peer has read a frame, it is in both counters.
    uint64_t bytesWritten = 0;
    uint64_t framesIn = 0;            ///< Well-formed frames decoded.
    uint64_t framesOut = 0;           ///< Frames encoded and queued.
    uint64_t malformedFrames = 0;     ///< Protocol violations seen.
    uint64_t handshakeFailures = 0;   ///< Bad magic/version Hellos.
};

/**
 * Thread-safe metrics sink shared by the admission path and the
 * workers.
 */
class ServerMetrics
{
  public:
    /** Adds @p n to one counter of @p workload and of the total. */
    void count(const std::string &workload,
               uint64_t WorkloadMetrics::*counter, uint64_t n = 1);

    /** Adds @p n to one transport counter (lock-free). */
    void count(uint64_t NetStats::*counter, uint64_t n = 1);

    /** Notes an admission-time rejection of the given kind. */
    void recordRejected(const std::string &workload,
                        RequestStatus status);

    /** Notes a dispatched flight that answered @p requests requests. */
    void recordFlight(const std::string &workload, size_t requests);

    /** Notes one run() execution taking @p serviceSeconds. */
    void recordExecution(const std::string &workload,
                         double serviceSeconds);

    /** Notes a terminal response; a rejection was counted already. */
    void recordOutcome(const std::string &workload,
                       const Response &response);

    /**
     * Notes the answer to a request no admission counted — a
     * single-flight follower's, or one a router relayed: a rejection
     * counts as rejected, anything else as submitted plus its
     * outcome, so every answered request lands in one column.
     */
    void recordAnswer(const std::string &workload,
                      const Response &response);

    /** Snapshot of one workload's aggregates (zeroes if unseen). */
    WorkloadMetrics workload(const std::string &name) const;

    /** Snapshot of the all-workloads total. */
    WorkloadMetrics total() const;

    /** Snapshot of every per-workload aggregate. */
    std::map<std::string, WorkloadMetrics> byWorkload() const;

    /** Clears all aggregates (between load-sweep operating points). */
    void reset();

    /**
     * Renders the standard serve report: one row per workload plus a
     * total row — counts, share factor, latency tails in
     * milliseconds, and the neural/symbolic split.
     */
    util::Table table() const;

    /**
     * Renders the resilience report: faults absorbed, retries,
     * terminal failures, overload sheds, replica replacements and
     * contained callback exceptions per workload.
     */
    util::Table resilienceTable() const;

    /** True when any resilience counter is nonzero (worth printing). */
    bool hasResilienceEvents() const;

    /** Snapshot of the TCP front end's connection counters. */
    NetStats netStats() const;

    /**
     * Renders the network report: connections, payload bytes and
     * frames in each direction, malformed frames and handshake
     * rejections.
     */
    util::Table netTable() const;

    /** The total outcome and transport counters that `--json`
     *  payloads carry, as comma-separated JSON object members. */
    std::string json() const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, WorkloadMetrics> perWorkload_;
    WorkloadMetrics total_;
    /** Bumped and read through std::atomic_ref, never under mu_. */
    mutable NetStats net_;
};

} // namespace nsbench::serve

#endif // NSBENCH_SERVE_METRICS_HH
