#include "net/breaker.hh"

namespace nsbench::net
{

namespace
{

/** EWMA smoothing factor for error rate and latency. */
constexpr double kAlpha = 0.125;

} // namespace

const char *
breakerStateName(BreakerState state)
{
    switch (state) {
    case BreakerState::Closed:
        return "closed";
    case BreakerState::Open:
        return "open";
    case BreakerState::HalfOpen:
        return "half_open";
    }
    return "unknown";
}

CircuitBreaker::CircuitBreaker(const BreakerOptions &options)
    : options_(options)
{
}

void
CircuitBreaker::observe(bool failed, double latencySeconds)
{
    if (samples_ == 0) {
        // Seed from the first outcome so the EWMAs are meaningful
        // immediately instead of climbing from zero for 1/kAlpha
        // samples.
        errorEwma_ = failed ? 1.0 : 0.0;
        latencyEwma_ = failed ? 0.0 : latencySeconds;
    } else {
        errorEwma_ += kAlpha * ((failed ? 1.0 : 0.0) - errorEwma_);
        if (!failed)
            latencyEwma_ += kAlpha * (latencySeconds - latencyEwma_);
    }
    samples_++;
}

void
CircuitBreaker::trip(int64_t nowUs)
{
    state_ = BreakerState::Open;
    openedAtUs_ = nowUs;
    probesInFlight_ = 0;
    opens_++;
}

void
CircuitBreaker::maybeHalfOpen(int64_t nowUs)
{
    if (state_ != BreakerState::Open)
        return;
    auto window =
        static_cast<int64_t>(options_.openSeconds * 1e6);
    if (nowUs - openedAtUs_ >= window) {
        state_ = BreakerState::HalfOpen;
        probesInFlight_ = 0;
    }
}

bool
CircuitBreaker::allow(int64_t nowUs)
{
    std::lock_guard<std::mutex> lock(mu_);
    maybeHalfOpen(nowUs);
    switch (state_) {
    case BreakerState::Closed:
        return true;
    case BreakerState::Open:
        return false;
    case BreakerState::HalfOpen:
        if (probesInFlight_ >= options_.halfOpenProbes)
            return false;
        probesInFlight_++;
        probes_++;
        return true;
    }
    return true;
}

void
CircuitBreaker::onSuccess(double latencySeconds,
                          double referenceSeconds, int64_t nowUs)
{
    std::lock_guard<std::mutex> lock(mu_);
    maybeHalfOpen(nowUs);

    bool tooSlow = referenceSeconds > 0.0 &&
                   latencySeconds >
                       options_.latencyFactor * referenceSeconds;

    if (state_ == BreakerState::HalfOpen) {
        if (probesInFlight_ > 0)
            probesInFlight_--;
        if (tooSlow) {
            // The probe answered, but still tail-latency-sick:
            // answering slowly is exactly what the breaker exists to
            // keep out of the ring.
            trip(nowUs);
            return;
        }
        // Recovered. The backend re-earns trust from a clean slate:
        // stale sick-era EWMAs must not trip it again instantly.
        state_ = BreakerState::Closed;
        errorEwma_ = 0.0;
        latencyEwma_ = latencySeconds;
        samples_ = 1;
        return;
    }

    observe(false, latencySeconds);
    if (state_ == BreakerState::Closed &&
        samples_ >= options_.minSamples && referenceSeconds > 0.0 &&
        latencyEwma_ >
            options_.latencyFactor * referenceSeconds)
        trip(nowUs);
}

void
CircuitBreaker::onFailure(int64_t nowUs)
{
    std::lock_guard<std::mutex> lock(mu_);
    maybeHalfOpen(nowUs);

    if (state_ == BreakerState::HalfOpen) {
        if (probesInFlight_ > 0)
            probesInFlight_--;
        trip(nowUs);
        return;
    }

    observe(true, 0.0);
    if (state_ == BreakerState::Closed &&
        samples_ >= options_.minSamples &&
        errorEwma_ > options_.errorThreshold)
        trip(nowUs);
}

void
CircuitBreaker::onUnreachable(int64_t nowUs)
{
    std::lock_guard<std::mutex> lock(mu_);
    maybeHalfOpen(nowUs);
    if (state_ == BreakerState::HalfOpen && probesInFlight_ > 0)
        probesInFlight_--;
    observe(true, 0.0);
    trip(nowUs);
}

BreakerState
CircuitBreaker::state(int64_t nowUs)
{
    std::lock_guard<std::mutex> lock(mu_);
    maybeHalfOpen(nowUs);
    return state_;
}

BreakerSnapshot
CircuitBreaker::snapshot(int64_t nowUs)
{
    std::lock_guard<std::mutex> lock(mu_);
    maybeHalfOpen(nowUs);
    BreakerSnapshot snap;
    snap.state = state_;
    snap.errorRate = errorEwma_;
    snap.latencySeconds = latencyEwma_;
    snap.samples = samples_;
    snap.opens = opens_;
    snap.probes = probes_;
    return snap;
}

} // namespace nsbench::net
