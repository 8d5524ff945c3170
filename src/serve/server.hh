/**
 * @file
 * The neuro-symbolic inference server.
 *
 * A Server owns the admission queue and a pool of worker threads.
 * Each worker pre-warms one replica of every served workload — setUp
 * runs once per replica and is reused across requests — then
 * executes flights popped straight off the admission queue.
 *
 * Determinism contract: a workload's score is a pure function of
 * (model seed, episode seed). The server relies on this in both
 * directions. Replicas built from the same model seed are
 * interchangeable, so a request's score does not depend on which
 * worker runs it or on arrival order. And equal requests are
 * *coalescible*: every request joins the single flight of its key
 * (workload, model seed, episode seed — seed 0 for workloads that
 * declare seedSensitive() == false), only the flight's first request
 * enters the queue, and one run() answers every request still
 * waiting on the key. That sharing is the serving runtime's whole
 * throughput gain on CPU-bound workloads; no kernel ever sees more
 * than one request. The optional result cache sits in front and
 * answers keys whose flight already landed.
 *
 * Each worker pins itself into ThreadPool::SerialScope and installs a
 * thread-local profiler target, so requests execute single-threaded
 * on the worker with an exact per-execution neural/symbolic phase
 * split, and concurrent workers never contend on the shared pool.
 */

#ifndef NSBENCH_SERVE_SERVER_HH
#define NSBENCH_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.hh"
#include "cache/single_flight.hh"
#include "core/profiler.hh"
#include "core/workload.hh"
#include "serve/metrics.hh"
#include "serve/queue.hh"
#include "serve/request.hh"

namespace nsbench::serve
{

/** Server construction knobs. */
struct ServerOptions
{
    /** Workloads this server hosts (replica of each per worker). */
    std::vector<std::string> workloads;
    int workers = 2;              ///< Worker threads (replica sets).
    size_t queueCapacity = 256;   ///< Admission queue bound (flights).
    uint64_t modelSeed = 42;      ///< setUp seed for every replica.
    /**
     * Enables the request-result cache: repeats of a completed
     * (workload, episode seed) are answered at admission without a
     * run(). Valid because scores are pure in (model seed, episode
     * seed) — the determinism contract above. Default off so every
     * existing test and bench sees the historical execution counts;
     * the CLI/bench layer opts in via NSBENCH_CACHE/--cache.
     */
    bool resultCache = false;
    uint64_t cacheBytes = 64ull << 20; ///< Result-cache byte budget.
    size_t cacheShards = 8;            ///< Result-cache shard count.
    /**
     * Resilience knobs. With no faults (empty failpoint spec, no
     * exceptions out of run()) neither changes any behaviour:
     * retries only trigger on a throwing run().
     */
    int maxRetries = 2;           ///< Re-attempts for a failed run().
    int64_t retryBackoffUs = 200; ///< First backoff; doubles per retry.
    /**
     * Queue-delay-based adaptive shedding (CoDel-style): workers
     * maintain an EWMA of observed queue sojourn (submit -> dispatch),
     * and when it has stayed above this target for longer than a
     * short grace interval submit() sheds new flights with
     * RejectedOverload until the sojourn recovers. Catches the
     * overload mode a full queue cannot show — a queue that is short
     * but *draining slowly* (e.g. a degraded worker). 0 = off.
     */
    int64_t targetSojournUs = 0;
    /** How long the sojourn EWMA must exceed the target before the
     *  adaptive gate starts shedding (absorbs bursts). */
    int64_t sojournGraceUs = 100000;
    /**
     * Replica factory; defaults to the global workload registry.
     * Override to serve reduced-size configs (e.g. a serve-sized
     * NVSA) without touching the registry.
     */
    std::function<std::unique_ptr<core::Workload>(const std::string &)>
        factory;
};

/**
 * Serving runtime over pre-warmed workload replicas.
 */
class Server
{
  public:
    /**
     * Builds the replicas and starts the worker threads.
     * Blocks until every worker has finished pre-warming, so the
     * first request never pays setUp cost.
     */
    explicit Server(ServerOptions options);

    /** Graceful shutdown (drains admitted work). */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Submits a request. Returns Ok when admitted — the callback will
     * fire exactly once later — or a rejection status, in which case
     * the callback is never invoked.
     *
     * A request whose key already has a flight in progress joins it
     * instead of queueing: it never takes a queue slot and is never
     * shed, and it is answered by the flight's run().
     *
     * A non-null @p cancel token makes the request abandonable: once
     * the submitter sets it, the server answers this request Canceled
     * at its next check (see CancelToken). The exactly-once callback
     * contract holds either way.
     */
    RequestStatus submit(const std::string &workload, uint64_t seed,
                         Callback done,
                         TimePoint deadline = noDeadline(),
                         CancelToken cancel = nullptr);

    /** Blocking convenience wrapper: submit and wait for completion. */
    Response call(const std::string &workload, uint64_t seed,
                  TimePoint deadline = noDeadline());

    /**
     * Stops admission, waits for every admitted request to complete,
     * and joins all threads. Idempotent; also run by the destructor.
     */
    void shutdown();

    /** The metrics sink (live; snapshot via its accessors). */
    ServerMetrics &metrics() { return metrics_; }

    /** Clears metrics between load-sweep operating points. */
    void resetMetrics() { metrics_.reset(); }

    /** Served workload names, in option order. */
    const std::vector<std::string> &workloads() const
    {
        return options_.workloads;
    }

    /** The options the server was built with. */
    const ServerOptions &options() const { return options_; }

    /** The result cache, or nullptr when disabled. */
    const cache::ResultCache *
    resultCache() const
    {
        return cache_.get();
    }

  private:
    /** Per-worker replica with its private profiler. */
    struct Replica
    {
        std::unique_ptr<core::Workload> workload;
        core::Profiler profiler;
    };

    /** One request parked on its key's flight until it is answered. */
    struct Waiter
    {
        uint64_t id = 0;
        TimePoint enqueue{};
        TimePoint deadline = TimePoint::max();
        Callback done;
        CancelToken cancel; ///< Null when the request is not cancelable.

        /** True once the submitter has given up on the request. */
        bool
        canceled() const
        {
            return cancel && cancel->load(std::memory_order_relaxed);
        }
    };

    /** A queued flight: one execution for every waiter of @p key. */
    struct Flight
    {
        std::string workload;
        uint64_t seed = 0;
        std::string key;
        uint64_t leaderId = 0; ///< The waiter that queued the flight.
        TimePoint enqueue{};
    };

    /** Worker thread body: pre-warm, signal ready, serve flights. */
    void workerMain(int workerIndex);

    /** Folds one observed queue sojourn into the EWMA (dispatch). */
    void noteSojourn(int64_t sojournUs);

    /** True when the adaptive sojourn gate says to shed right now. */
    bool sojournOverloaded(TimePoint now);

    /**
     * Executes one flight on this worker's replicas: answers its dead
     * waiters, runs the key once with bounded retries while any waiter
     * is live, caches an Ok score, and fans the outcome out.
     */
    void runFlight(std::map<std::string, Replica> &replicas,
                   const Flight &flight);

    /**
     * Answers every dead waiter of @p flight at @p now and returns
     * true while a live one remains; at false the flight has ended.
     */
    bool pruneFlight(const Flight &flight, TimePoint now,
                     size_t *answered);

    /**
     * Records and delivers one waiter's response. Followers are
     * counted as admitted or rejected here, when their fate is known,
     * so a follower whose leader failed admission counts as rejected.
     */
    void answer(const Flight &flight, const Waiter &waiter,
                const Response &response);

    /**
     * Invokes a completion callback, containing anything it throws:
     * one misbehaving client must never kill a worker thread or
     * strand the rest of its flight.
     */
    void deliver(const std::string &workload, const Callback &done,
                 const Response &response);

    /**
     * Supervisor: replaces a poisoned replica with a freshly built
     * one (same factory, same model seed — interchangeable by the
     * determinism contract). The flight's waiters stay parked, so no
     * callback is dropped. A failed rebuild keeps the old replica;
     * the retry loop decides what happens next.
     */
    void rebuildReplica(const std::string &name, Replica &replica);

    ServerOptions options_;
    ServerMetrics metrics_;
    BoundedQueue<Flight> admission_;
    std::unique_ptr<cache::ResultCache> cache_;
    cache::SingleFlight<Waiter> flights_;
    /** Per-workload seedSensitive(), probed once at construction. */
    std::map<std::string, bool> seedSensitive_;
    std::vector<std::thread> workers_;
    std::atomic<uint64_t> nextId_{1};
    /** EWMA of observed queue sojourn in microseconds (alpha 1/8),
     *  updated by workers at dispatch; read by the adaptive gate. */
    std::atomic<int64_t> sojournEwmaUs_{0};
    /** Serve-clock microseconds when the EWMA first exceeded the
     *  target (0 = currently under target). */
    std::atomic<int64_t> sojournAboveSinceUs_{0};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> joined_{false};
    std::mutex readyMu_;
    std::condition_variable readyCv_;
    int readyWorkers_ = 0;
};

} // namespace nsbench::serve

#endif // NSBENCH_SERVE_SERVER_HH
