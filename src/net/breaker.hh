/**
 * @file
 * Per-backend circuit breaker for the sharded router.
 *
 * The router's original health model was binary — a backend was up,
 * or a failed submit marked it down for a fixed retry window. That
 * model cannot see the harder failure mode the tail-tolerance layer
 * targets: a backend that still answers every request, just 10x
 * slower than its peers, dragging the whole ring's p99 with it.
 *
 * The breaker is the classic three-state machine:
 *
 *   Closed    — traffic flows; every outcome feeds two EWMAs, the
 *               error rate and the completion latency. The breaker
 *               opens when the error EWMA crosses errorThreshold, or
 *               when its latency EWMA exceeds latencyFactor times a
 *               caller-supplied reference (the fleet-wide latency
 *               EWMA) — the slow-not-dead trigger. Both judgments
 *               wait for minSamples outcomes, so one cold-start
 *               hiccup cannot trip it.
 *   Open      — allow() refuses all traffic (the router routes around
 *               the backend) until openSeconds elapse.
 *   Half-open — allow() admits at most halfOpenProbes in-flight
 *               probes. A probe success at acceptable latency closes
 *               the breaker and resets its history (the backend
 *               re-earns trust from scratch); a probe failure — or a
 *               probe success still latencyFactor over the reference
 *               — reopens it for another openSeconds.
 *
 * Time is injected (microsecond timestamps chosen by the caller), so
 * unit tests drive the full state machine synthetically without
 * sleeping; the router feeds it the serve clock. Thread-safe.
 */

#ifndef NSBENCH_NET_BREAKER_HH
#define NSBENCH_NET_BREAKER_HH

#include <cstdint>
#include <mutex>

namespace nsbench::net
{

/** Breaker thresholds and timing. */
struct BreakerOptions
{
    /** Error-rate EWMA in [0,1] at which the breaker opens. */
    double errorThreshold = 0.5;
    /** Open when the latency EWMA exceeds this multiple of the
     *  reference latency (0 reference disables the latency trigger —
     *  e.g. a single-backend ring has no peers to compare against). */
    double latencyFactor = 3.0;
    /** Outcomes required before the EWMAs are trusted to trip. */
    uint64_t minSamples = 10;
    /** How long an open breaker blocks before probing. */
    double openSeconds = 1.0;
    /** Concurrent probe requests admitted while half-open. */
    int halfOpenProbes = 1;
};

/** The breaker's position in its state machine. */
enum class BreakerState
{
    Closed,   ///< Healthy; traffic flows.
    Open,     ///< Tripped; all traffic refused until the timeout.
    HalfOpen, ///< Probing; a limited trickle decides reopen/close.
};

/** Short stable name for reports and JSON. */
const char *breakerStateName(BreakerState state);

/** Point-in-time breaker internals for reporting. */
struct BreakerSnapshot
{
    BreakerState state = BreakerState::Closed;
    double errorRate = 0.0;       ///< Error EWMA, [0, 1].
    double latencySeconds = 0.0;  ///< Latency EWMA of completions.
    uint64_t samples = 0;         ///< Outcomes since the last reset.
    uint64_t opens = 0;           ///< Times the breaker tripped.
    uint64_t probes = 0;          ///< Half-open probes admitted.
};

class CircuitBreaker
{
  public:
    explicit CircuitBreaker(const BreakerOptions &options = {});

    /**
     * Admission check at @p nowUs: true when a request may be sent.
     * Performs the Open -> HalfOpen transition when the open window
     * has elapsed, and counts the admitted probe while half-open.
     */
    bool allow(int64_t nowUs);

    /**
     * Feeds one successful completion that took @p latencySeconds.
     * @p referenceSeconds is the healthy-fleet latency scale (0 to
     * skip the latency judgment). May trip Closed -> Open on a slow
     * backend, or close/reopen a half-open one.
     */
    void onSuccess(double latencySeconds, double referenceSeconds,
                   int64_t nowUs);

    /** Feeds one failed request (an error on a live connection). */
    void onFailure(int64_t nowUs);

    /**
     * Feeds one hard connectivity failure (dial refused, dead
     * socket). Unlike onFailure this trips immediately regardless of
     * minSamples: a refused connection is not a statistical signal,
     * and waiting for an EWMA to agree just burns more requests on a
     * dead endpoint. Matches the old binary down-marking for the
     * backend-is-gone case.
     */
    void onUnreachable(int64_t nowUs);

    /** Current state, resolving a due Open -> HalfOpen transition. */
    BreakerState state(int64_t nowUs);

    /** Reporting snapshot (state resolved as in state()). */
    BreakerSnapshot snapshot(int64_t nowUs);

  private:
    /** Folds an outcome into the EWMAs (mu_ held). */
    void observe(bool failed, double latencySeconds);

    /** Trips to Open at @p nowUs (mu_ held). */
    void trip(int64_t nowUs);

    /** Resolves Open -> HalfOpen when due (mu_ held). */
    void maybeHalfOpen(int64_t nowUs);

    BreakerOptions options_;

    std::mutex mu_;
    BreakerState state_ = BreakerState::Closed;
    double errorEwma_ = 0.0;
    double latencyEwma_ = 0.0;
    uint64_t samples_ = 0;
    int64_t openedAtUs_ = 0;
    int probesInFlight_ = 0;
    uint64_t opens_ = 0;
    uint64_t probes_ = 0;
};

} // namespace nsbench::net

#endif // NSBENCH_NET_BREAKER_HH
