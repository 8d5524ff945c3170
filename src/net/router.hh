/**
 * @file
 * Sharded request router over the wire protocol.
 *
 * A Router is a FrameServer (same protocol as the serve front end —
 * clients cannot tell the difference) whose handler forwards each
 * request to one of N backend servers and relays the response. The
 * pieces:
 *
 *  - Consistent-hash placement: a ring of virtual nodes (FNV-1a 64
 *    through a 64-bit finalizer, 64 points per backend)
 *    keyed by (workload, modelSeed, episodeSeed). The same request
 *    always lands on the same backend, so each backend's result
 *    cache and single-flight table see the full repeat-rate of their
 *    key range — sharding multiplies cache capacity instead of
 *    diluting hit rate. Adding or losing a backend remaps only the
 *    ring arcs it owned.
 *
 *  - Health: a per-backend circuit breaker (net/breaker.hh). An
 *    unreachable submit trips it instantly (the old binary
 *    down-marking, preserved for dead backends); error-rate and
 *    latency EWMAs trip it for the subtler slow-not-dead case, where
 *    a backend answers everything but at a multiple of its peers'
 *    latency. An open breaker is walked past on the ring like a
 *    saturated backend; after `breaker.openSeconds` it admits bounded
 *    half-open probes that decide recovery. The latency reference a
 *    backend is judged against is the smallest latency EWMA among
 *    the *other* backends — the healthiest peer — so one sick shard
 *    cannot drag the yardstick up with it.
 *
 *  - One ring walk: primaries, hedges and failovers all go through
 *    forward(), which skips backends the request already tried,
 *    counts a saturated backend as `saturated` and every walk past
 *    an open breaker (or an unreachable send) as a `failover`.
 *
 *  - Hedging: when a forwarded request is still unanswered after the
 *    workload's tracked p95 latency, the router re-issues it to the
 *    next distinct ring backend. First response wins and is relayed
 *    (safe: the determinism contract makes both answers
 *    byte-identical); the loser is canceled on its backend with a
 *    wire Cancel frame (`cancels` counts only frames actually
 *    written). Hedges are budgeted: at most
 *    `hedgeBudget` (default 5%) extra load on top of primary
 *    forwards, and hedging stays off for a workload until
 *    `hedgeMinSamples` completions have made its p95 trustworthy.
 *    Exactly-once relay is a first-writer-wins flag on the relay
 *    state; the losing completion only feeds health counters.
 *
 *  - Backpressure: at most 256 forwarded requests per backend
 *    (`inflight`); a saturated backend is walked past like
 *    an open-breaker one. When every backend is open or saturated
 *    the router sheds with RejectedUnreachable — it never queues.
 *
 * The router keeps its own ServerMetrics: transport counters from
 * its FrameServer, per-workload offered/rejected/latency from the
 * relay path, so `nsbench route` prints the standard tables. A
 * relayed answer is counted as Server::answer counts a single-flight
 * follower's (ServerMetrics::recordAnswer): a backend's rejection as
 * rejected, anything else as submitted plus its outcome, so every
 * answered request lands in exactly one outcome column. Its own
 * counters are plain BackendStats fields bumped through util::bump;
 * the reports render from one field list (router.cc).
 */

#ifndef NSBENCH_NET_ROUTER_HH
#define NSBENCH_NET_ROUTER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "net/breaker.hh"
#include "net/client.hh"
#include "net/tcp_server.hh"
#include "serve/metrics.hh"
#include "util/format.hh"
#include "util/stats.hh"

namespace nsbench::net
{

/** Router configuration. */
struct RouterOptions
{
    FrameServerOptions listen;          ///< Front-end bind address.
    std::vector<std::string> backends;  ///< "host:port" per shard.
    /** Breaker thresholds; openSeconds is how long a tripped backend
     *  is walked past before half-open probes test it again. */
    BreakerOptions breaker;
    /** Master switch for hedged requests. */
    bool hedging = true;
    /** Completions a workload needs before its p95 is trusted as a
     *  hedge delay. Below this, no hedges are issued for it. */
    uint64_t hedgeMinSamples = 32;
    /** Clamp on the tracked-p95 hedge delay. The floor keeps
     *  microsecond-fast workloads from hedging everything; the
     *  ceiling keeps one pathological tail sample from disabling
     *  hedging outright. */
    double hedgeMinDelaySeconds = 0.001;
    double hedgeMaxDelaySeconds = 1.0;
    /** Hedge budget as a fraction of primary forwards: hedges are
     *  denied once hedgesSent exceeds this share (≤5% extra load at
     *  the default). */
    double hedgeBudget = 0.05;
};

/** Point-in-time per-backend counters. */
struct BackendStats
{
    std::string endpoint;      ///< "host:port".
    bool down = false;         ///< Breaker not Closed.
    std::string breakerState;  ///< "closed" / "open" / "half_open".
    double errorRate = 0.0;    ///< Breaker error EWMA, [0, 1].
    double latencySeconds = 0.0; ///< Breaker latency EWMA.
    uint64_t inflight = 0;     ///< Forwarded, not yet answered.
    uint64_t forwarded = 0;    ///< Requests sent to this backend.
    uint64_t hedges = 0;       ///< Hedge re-issues sent to it.
    uint64_t hedgeWins = 0;    ///< Hedges it answered first.
    uint64_t cancels = 0;      ///< Cancel frames written to it.
    uint64_t failovers = 0;    ///< Walks past it: open breaker,
                               ///< unreachable, or a dropped request.
    uint64_t saturated = 0;    ///< Walk-pasts due to the cap.
    uint64_t downMarks = 0;    ///< Breaker trips (-> Open).
    uint64_t probes = 0;       ///< Half-open probes admitted.
};

/** Router-wide tail-tolerance counters (backend sums but one). */
struct HedgeStats
{
    uint64_t hedgesSent = 0;   ///< Hedge re-issues written.
    uint64_t hedgesWon = 0;    ///< Hedges that answered first.
    uint64_t hedgesDenied = 0; ///< Due hedges dropped by the budget.
    uint64_t cancelsSent = 0;  ///< Cancel frames written to losers.
};

class Router
{
  public:
    /** Binds, connects nothing yet (backends dial lazily), serves. */
    explicit Router(const RouterOptions &options);
    ~Router();

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    /** The bound front-end port. */
    uint16_t port() const { return frames_->port(); }

    /** Graceful drain of the front end; idempotent. */
    void shutdown();

    /** Relay + transport metrics (standard serve tables). */
    serve::ServerMetrics &metrics() { return metrics_; }

    std::vector<BackendStats> backendStats() const;

    HedgeStats hedgeStats() const;

    /** One row per backend, for the CLI report. */
    util::Table backendTable() const;

    /**
     * The per-backend health as a JSON array — one object per
     * backend with endpoint, breaker state/EWMAs and the forwarding
     * counters. Embedded by `route --json` and pinned by the tail
     * tier's reporting test.
     */
    std::string backendJson() const;

    /** The `route --json` payload: relay and transport totals, the
     *  hedge counters and backendJson(), as one JSON object. */
    std::string json() const;

    /**
     * Ring lookup without forwarding: the backend index that
     * (workload, modelSeed, episodeSeed) maps to when every backend
     * is healthy. Exposed for the placement tests.
     */
    size_t shardOf(const std::string &workload, uint64_t modelSeed,
                   uint64_t episodeSeed) const;

  private:
    struct Backend
    {
        std::string endpoint;
        /** A real atomic: it gates admission, not just reporting. */
        std::atomic<uint64_t> inflight{0};
        /** Forwarding counters, bumped through util::bump. */
        BackendStats counts;

        CircuitBreaker breaker;

        /** Declared last: destroyed first, so callbacks fired while
         *  the client's destructor fails its in-flight requests can
         *  still touch the counters above. */
        std::unique_ptr<Client> client;

        explicit Backend(const BreakerOptions &options)
            : breaker(options)
        {
        }
    };

    /** One submission attempt (primary or hedge). The wire id is
     *  filled in by sendTo after the frame is written; an attempt is
     *  only published to Relay::attempts once it is valid. */
    struct Attempt
    {
        size_t backend = 0;
        uint64_t wireId = 0;
        bool hedge = false;
    };

    /**
     * Shared state of one front-end request being relayed. The
     * primary completion, the hedge completion and the hedge timer
     * all hold a shared_ptr; `responded` is the first-writer-wins
     * guard that keeps the front-end response exactly-once.
     */
    struct Relay
    {
        FrameServer::SessionPtr session;
        uint64_t id = 0;
        std::string workload;
        uint64_t episodeSeed = 0;
        uint64_t modelSeed = 0;
        serve::TimePoint deadline;
        std::vector<size_t> candidates; ///< Ring walk order.

        std::atomic<bool> responded{false};
        std::mutex mu; ///< Guards attempts.
        std::vector<std::shared_ptr<Attempt>> attempts;
    };
    using RelayPtr = std::shared_ptr<Relay>;

    void handle(const FrameServer::SessionPtr &session,
                const wire::RequestFrame &request);
    /** Ring walk: distinct backend indices in preference order. */
    std::vector<size_t> candidatesFor(uint64_t keyHash) const;

    /**
     * The one ring walk, for primaries, hedges and failovers: sends
     * @p relay to the first of its candidates that it has not tried
     * yet, that is below the inflight cap and whose breaker admits
     * it. Walking past a saturated backend counts `saturated`; past
     * an open breaker or an unreachable one, a `failover`. True when
     * a send stuck.
     */
    bool forward(const RelayPtr &relay, bool hedge);

    /**
     * Submits @p relay to backend @p index. True means the request is
     * on the wire and its completion owns the relay bookkeeping (the
     * backend's verdict arrives through complete()); false means the
     * backend was unreachable, its breaker was fed, and the caller
     * walks on.
     */
    bool sendTo(const RelayPtr &relay, size_t index, bool hedge);
    /** Completion of one attempt (runs on a client reader thread). */
    void complete(const RelayPtr &relay,
                  const std::shared_ptr<Attempt> &attempt,
                  std::chrono::steady_clock::time_point sentAt,
                  const serve::Response &response);
    /** Sends Cancel frames for every attempt except @p winner. */
    void cancelLosers(const RelayPtr &relay, const Attempt *winner);

    /** Queues a hedge timer for @p relay when hedging applies. */
    void scheduleHedge(const RelayPtr &relay);
    /** The hedge timer thread body. */
    void hedgeLoop();
    /** Fires one due hedge: budget check, pick a backend, send. */
    void fireHedge(const RelayPtr &relay);

    /** Smallest latency EWMA among backends other than @p self —
     *  the healthy-peer yardstick fed to the breaker (0 when there
     *  is no peer with samples, which disables the latency trip). */
    double referenceLatency(size_t self) const;

    /** Microseconds on the steady clock — the breaker time base. */
    static int64_t nowUs();

    RouterOptions options_;
    serve::ServerMetrics metrics_;
    std::vector<std::unique_ptr<Backend>> backends_;
    /** (point hash, backend index), sorted by hash. Immutable after
     *  construction, so lookups are lock-free. */
    std::vector<std::pair<uint64_t, size_t>> ring_;

    /** The one router-wide counter; the rest of HedgeStats sums the
     *  backends' counts. Bumped through util::bump. */
    mutable uint64_t hedgesDenied_ = 0;

    /** Per-workload completion-latency p95 (hedge delay source). */
    mutable std::mutex latencyMu_;
    std::map<std::string, util::P2Quantile> latency_;

    /** Hedge timer: min-heap of (fire time, relay), one thread. */
    struct HedgeEntry
    {
        std::chrono::steady_clock::time_point at;
        std::weak_ptr<Relay> relay;
        bool operator>(const HedgeEntry &other) const
        {
            return at > other.at;
        }
    };
    std::mutex hedgeMu_;
    std::condition_variable hedgeCv_;
    bool hedgeStop_ = false;
    std::priority_queue<HedgeEntry, std::vector<HedgeEntry>,
                        std::greater<HedgeEntry>>
        hedgeQueue_;
    std::thread hedgeThread_;
    std::once_flag hedgeJoinOnce_;

    std::unique_ptr<FrameServer> frames_;
};

} // namespace nsbench::net

#endif // NSBENCH_NET_ROUTER_HH
