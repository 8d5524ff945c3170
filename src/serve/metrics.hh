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
 */

#ifndef NSBENCH_SERVE_METRICS_HH
#define NSBENCH_SERVE_METRICS_HH

#include <atomic>
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
    /**
     * Every request that reached submit(): admissions plus every
     * rejection. Offered load is the correct denominator for
     * acceptance/goodput math — `completed` must never be divided by
     * a window that silently includes queue-full rejects.
     */
    uint64_t offered = 0;
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

    /** Total admission-time rejections. */
    uint64_t
    rejected() const
    {
        return rejectedQueueFull + rejectedDeadline +
               rejectedShutdown + rejectedUnknown +
               rejectedOverload + rejectedUnreachable;
    }

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
 * Connection-level counters of the TCP front end (src/net/). These
 * are transport facts, not per-workload outcomes, so they live next
 * to — not inside — the WorkloadMetrics aggregates; the net layer
 * folds them into the same ServerMetrics instance so one snapshot
 * captures the whole serving picture. Lock-free atomics: the byte
 * counters sit on the read/write hot path of every connection.
 */
struct NetStats
{
    uint64_t connectionsAccepted = 0; ///< Sockets accepted.
    uint64_t connectionsClosed = 0;   ///< Sockets closed (any cause).
    uint64_t bytesRead = 0;           ///< Payload bytes received.
    uint64_t bytesWritten = 0;        ///< Payload bytes sent.
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
    /** Notes an admitted request. */
    void recordAdmitted(const std::string &workload);

    /** Notes an admission-time rejection of the given kind. */
    void recordRejected(const std::string &workload,
                        RequestStatus status);

    /** Notes a dispatched flight that answered @p requests requests. */
    void recordFlight(const std::string &workload, size_t requests);

    /** Notes one run() execution taking @p serviceSeconds. */
    void recordExecution(const std::string &workload,
                         double serviceSeconds);

    /** Notes a completion (Ok or Expired) with its response record. */
    void recordOutcome(const std::string &workload,
                       const Response &response);

    /** Notes one run() attempt that threw (injected or real). */
    void recordWorkerFault(const std::string &workload);

    /** Notes one re-attempt after a faulted run(). */
    void recordRetry(const std::string &workload);

    /** Notes a supervisor replica rebuild after a poisoned run. */
    void recordReplicaReplaced(const std::string &workload);

    /** Notes a client callback that threw (contained by the server). */
    void recordCallbackFailure(const std::string &workload);

    /** Notes an overload shed decided by the adaptive sojourn gate
     *  (recordRejected still counts the rejection itself). */
    void recordSojournShed(const std::string &workload);

    /** Notes a result-cache hit served at admission. */
    void recordCacheHit(const std::string &workload);

    /** Notes a result-cache miss. */
    void recordCacheMiss(const std::string &workload);

    /** Notes @p n entries evicted while caching a result. */
    void recordCacheEvictions(const std::string &workload, uint64_t n);

    /** Notes @p n followers fanned a single-flight leader's result. */
    void recordSingleFlight(const std::string &workload, uint64_t n);

    /** Notes an accepted TCP connection (net front end). */
    void recordNetAccept();

    /** Notes a closed TCP connection. */
    void recordNetClose();

    /** Notes @p n payload bytes read off sockets. */
    void recordNetBytesRead(uint64_t n);

    /** Notes @p n payload bytes written to sockets. */
    void recordNetBytesWritten(uint64_t n);

    /** Notes one well-formed frame decoded. */
    void recordNetFrameIn();

    /** Notes one frame encoded toward a client. */
    void recordNetFrameOut();

    /** Notes a malformed frame (the connection gets closed). */
    void recordNetMalformed();

    /** Notes a handshake rejected for bad magic or version. */
    void recordNetHandshakeFailure();

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

    /** True when the server saw any network traffic at all. */
    bool hasNetActivity() const;

    /**
     * Renders the network report: connections, payload bytes and
     * frames in each direction, malformed frames and handshake
     * rejections.
     */
    util::Table netTable() const;

  private:
    mutable std::mutex mu_;
    std::map<std::string, WorkloadMetrics> perWorkload_;
    WorkloadMetrics total_;
    /** Net counters are atomics, not under mu_: they tick on every
     *  socket read/write and must never contend with outcome
     *  recording. reset() zeroes them too. */
    std::atomic<uint64_t> netAccepted_{0};
    std::atomic<uint64_t> netClosed_{0};
    std::atomic<uint64_t> netBytesRead_{0};
    std::atomic<uint64_t> netBytesWritten_{0};
    std::atomic<uint64_t> netFramesIn_{0};
    std::atomic<uint64_t> netFramesOut_{0};
    std::atomic<uint64_t> netMalformed_{0};
    std::atomic<uint64_t> netHandshakeFailures_{0};
};

} // namespace nsbench::serve

#endif // NSBENCH_SERVE_METRICS_HH
