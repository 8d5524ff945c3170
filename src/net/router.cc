#include "net/router.hh"

#include <algorithm>

#include "util/fields.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace nsbench::net
{

namespace
{

using util::bump;
using util::fatal;
using util::fmix64;
using util::load;

constexpr int kVirtualNodes = 64;             ///< Ring points per backend.
constexpr uint64_t kMaxInflightPerBackend = 256; ///< Backpressure cap.

/** FNV-1a 64 over arbitrary bytes, chainable via @p seed. */
uint64_t
fnv1a(const void *data, size_t size,
      uint64_t seed = 1469598103934665603ULL)
{
    const auto *bytes = static_cast<const uint8_t *>(data);
    uint64_t hash = seed;
    for (size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 1099511628211ULL;
    }
    return hash;
}

/** The placement key: (workload, modelSeed, episodeSeed). */
uint64_t
keyHash(const std::string &workload, uint64_t modelSeed,
        uint64_t episodeSeed)
{
    uint64_t hash = fnv1a(workload.data(), workload.size());
    hash = fnv1a(&modelSeed, sizeof(modelSeed), hash);
    hash = fnv1a(&episodeSeed, sizeof(episodeSeed), hash);
    return fmix64(hash);
}

using B = BackendStats;

/** The backend report: table columns and `route --json` keys. The
 *  breaker EWMAs show rounded in the table, finer in JSON. */
const util::Fields<B> kBackendFields = {
    {"backend", "endpoint", nullptr,
     [](const B &b) { return b.endpoint; }, true},
    {"state", "breaker", nullptr,
     [](const B &b) { return b.breakerState; }, true},
    {nullptr, "down", nullptr,
     [](const B &b) { return std::string(b.down ? "true" : "false"); }},
    {nullptr, "error_rate", nullptr,
     [](const B &b) { return util::fixedStr(b.errorRate, 4); }},
    {nullptr, "latency_ewma_seconds", nullptr,
     [](const B &b) { return util::fixedStr(b.latencySeconds, 6); }},
    {"inflight", "inflight", &B::inflight},
    {"forwarded", "forwarded", &B::forwarded},
    {"hedges", "hedges", &B::hedges},
    {"hedge wins", "hedge_wins", &B::hedgeWins},
    {"cancels", "cancels", &B::cancels},
    {"failovers", "failovers", &B::failovers},
    {"saturated", "saturated", &B::saturated},
    {"trips", "trips", &B::downMarks},
    {nullptr, "probes", &B::probes},
    {"err ewma", nullptr, nullptr,
     [](const B &b) { return util::fixedStr(b.errorRate, 3); }},
    {"lat ewma", nullptr, nullptr,
     [](const B &b) {
         return util::fixedStr(b.latencySeconds * 1e3, 3) + "ms";
     }},
};

const util::Fields<HedgeStats> kHedgeFields = {
    {nullptr, "hedges_sent", &HedgeStats::hedgesSent},
    {nullptr, "hedges_won", &HedgeStats::hedgesWon},
    {nullptr, "hedges_denied", &HedgeStats::hedgesDenied},
    {nullptr, "cancels", &HedgeStats::cancelsSent},
};

} // namespace

int64_t
Router::nowUs()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Router::Router(const RouterOptions &options) : options_(options)
{
    if (options_.backends.empty())
        fatal("net: router needs at least one backend");

    for (size_t i = 0; i < options_.backends.size(); ++i) {
        // A router with a bad backend list has nothing to route to.
        std::optional<Endpoint> endpoint =
            parseEndpoint(options_.backends[i]);
        if (!endpoint)
            fatal("net: backend '" + options_.backends[i] +
                  "' is not HOST:PORT");
        auto backend = std::make_unique<Backend>(options_.breaker);
        backend->endpoint = options_.backends[i];
        // Forwarding runs on the event-loop thread, so reconnect
        // patience is traded for fast failover: one connect attempt,
        // and the breaker's open window provides the backoff.
        ClientOptions client;
        client.host = endpoint->host;
        client.port = endpoint->port;
        client.connectAttempts = 1;
        backend->client = std::make_unique<Client>(client);
        backends_.push_back(std::move(backend));

        // FNV-1a alone bunches the points: "host:port#0" ..
        // "host:port#63" differ only in their last bytes, which barely
        // reach the high bits, so one of two backends could own almost
        // all of the ring. fmix64 spreads them.
        for (int v = 0; v < kVirtualNodes; ++v) {
            std::string point =
                options_.backends[i] + "#" + std::to_string(v);
            ring_.emplace_back(fmix64(fnv1a(point.data(), point.size())),
                               i);
        }
    }
    std::sort(ring_.begin(), ring_.end());

    if (options_.hedging && backends_.size() > 1)
        hedgeThread_ = std::thread([this] { hedgeLoop(); });

    // The router relays Cancel to no one: its handler ignores the
    // session's token, and a loser is canceled by the router itself.
    frames_ = std::make_unique<FrameServer>(
        options_.listen,
        [this](const FrameServer::SessionPtr &session,
               const wire::RequestFrame &request,
               const serve::CancelToken &) { handle(session, request); },
        metrics_);
}

Router::~Router()
{
    shutdown();
}

void
Router::shutdown()
{
    frames_->shutdown();
    std::call_once(hedgeJoinOnce_, [this] {
        {
            std::lock_guard<std::mutex> lock(hedgeMu_);
            hedgeStop_ = true;
        }
        hedgeCv_.notify_all();
        if (hedgeThread_.joinable())
            hedgeThread_.join();
    });
}

std::vector<size_t>
Router::candidatesFor(uint64_t hash) const
{
    std::vector<size_t> order;
    order.reserve(backends_.size());
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(),
        std::make_pair(hash, static_cast<size_t>(0)));
    for (size_t step = 0;
         step < ring_.size() && order.size() < backends_.size();
         ++step) {
        if (it == ring_.end())
            it = ring_.begin();
        size_t index = it->second;
        if (std::find(order.begin(), order.end(), index) ==
            order.end())
            order.push_back(index);
        ++it;
    }
    return order;
}

size_t
Router::shardOf(const std::string &workload, uint64_t modelSeed,
                uint64_t episodeSeed) const
{
    return candidatesFor(keyHash(workload, modelSeed, episodeSeed))
        .front();
}

double
Router::referenceLatency(size_t self) const
{
    double best = 0.0;
    for (size_t i = 0; i < backends_.size(); ++i) {
        if (i == self)
            continue;
        BreakerSnapshot snap =
            backends_[i]->breaker.snapshot(nowUs());
        if (snap.samples == 0 || snap.latencySeconds <= 0.0)
            continue;
        if (best == 0.0 || snap.latencySeconds < best)
            best = snap.latencySeconds;
    }
    return best;
}

bool
Router::sendTo(const RelayPtr &relay, size_t index, bool hedge)
{
    Backend &backend = *backends_[index];
    backend.inflight.fetch_add(1, std::memory_order_relaxed);

    auto attempt = std::make_shared<Attempt>();
    attempt->backend = index;
    attempt->hedge = hedge;
    auto sent_at = std::chrono::steady_clock::now();

    serve::RequestStatus sent = backend.client->submitSeeded(
        relay->workload, relay->episodeSeed, relay->modelSeed,
        [this, relay, attempt,
         sent_at](const serve::Response &response) {
            complete(relay, attempt, sent_at, response);
        },
        relay->deadline, &attempt->wireId);

    if (sent != serve::RequestStatus::Ok) {
        // Client::submitSeeded's only refusal: the backend is
        // unreachable. Trip its breaker; the caller walks on.
        backend.inflight.fetch_sub(1, std::memory_order_relaxed);
        backend.breaker.onUnreachable(nowUs());
        bump(backend.counts.failovers);
        return false;
    }

    bump(backend.counts.forwarded);
    if (hedge)
        bump(backend.counts.hedges);
    {
        std::lock_guard<std::mutex> lock(relay->mu);
        relay->attempts.push_back(attempt);
    }
    // If another attempt answered while this one was being written,
    // the winner's loser sweep may have run before our publish —
    // prune our own orphan (no frame if it already answered).
    if (relay->responded.load(std::memory_order_acquire) &&
        backend.client->cancel(attempt->wireId))
        bump(backend.counts.cancels);
    return true;
}

void
Router::complete(const RelayPtr &relay,
                 const std::shared_ptr<Attempt> &attempt,
                 std::chrono::steady_clock::time_point sentAt,
                 const serve::Response &response)
{
    Backend &backend = *backends_[attempt->backend];
    backend.inflight.fetch_sub(1, std::memory_order_relaxed);

    double latency = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - sentAt)
                         .count();

    // Feed the breaker. Failed means the connection died under the
    // request; everything else is the backend answering — a health
    // signal whatever the verdict. That includes Canceled: a server
    // answers a cancel only when it next reaches the request (at
    // dispatch, or after the run it was waiting on), so a hedged
    // primary stuck behind a slow run still reports that slowness.
    if (response.status == serve::RequestStatus::Failed)
        backend.breaker.onFailure(nowUs());
    else
        backend.breaker.onSuccess(
            latency, referenceLatency(attempt->backend), nowUs());

    if (response.status == serve::RequestStatus::Ok) {
        std::lock_guard<std::mutex> lock(latencyMu_);
        latency_.try_emplace(relay->workload, 0.95);
        latency_.at(relay->workload).add(latency);
    }

    // A Failed completion means the connection died under the
    // request. While untried ring candidates remain, re-issue there
    // instead of relaying the transport's bad luck to the client —
    // the determinism contract makes the retried answer identical.
    if (response.status == serve::RequestStatus::Failed &&
        !relay->responded.load(std::memory_order_acquire) &&
        forward(relay, attempt->hedge)) {
        bump(backend.counts.failovers);
        return;
    }

    // First writer wins: exactly one attempt relays to the client.
    if (relay->responded.exchange(true, std::memory_order_acq_rel))
        return;

    if (attempt->hedge)
        bump(backend.counts.hedgeWins);
    metrics_.recordAnswer(relay->workload, response);
    relay->session->respond(relay->id, response);
    cancelLosers(relay, attempt.get());
}

void
Router::cancelLosers(const RelayPtr &relay, const Attempt *winner)
{
    std::vector<std::pair<size_t, uint64_t>> losers;
    {
        std::lock_guard<std::mutex> lock(relay->mu);
        for (const auto &attempt : relay->attempts)
            if (attempt.get() != winner && attempt->wireId != 0)
                losers.emplace_back(attempt->backend,
                                    attempt->wireId);
    }
    for (const auto &[index, wire_id] : losers)
        if (backends_[index]->client->cancel(wire_id))
            bump(backends_[index]->counts.cancels);
}

void
Router::scheduleHedge(const RelayPtr &relay)
{
    if (!hedgeThread_.joinable())
        return; // Hedging off or single backend.
    if (relay->candidates.size() < 2)
        return;

    double delay = 0.0;
    {
        std::lock_guard<std::mutex> lock(latencyMu_);
        auto it = latency_.find(relay->workload);
        if (it == latency_.end() ||
            it->second.count() < options_.hedgeMinSamples)
            return; // p95 not trustworthy yet.
        delay = it->second.value();
    }
    delay = std::max(options_.hedgeMinDelaySeconds,
                     std::min(options_.hedgeMaxDelaySeconds, delay));

    HedgeEntry entry;
    entry.at = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<
                   std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(delay));
    entry.relay = relay;
    {
        std::lock_guard<std::mutex> lock(hedgeMu_);
        if (hedgeStop_)
            return;
        hedgeQueue_.push(std::move(entry));
    }
    hedgeCv_.notify_one();
}

void
Router::hedgeLoop()
{
    std::unique_lock<std::mutex> lock(hedgeMu_);
    while (!hedgeStop_) {
        if (hedgeQueue_.empty()) {
            hedgeCv_.wait(lock, [this] {
                return hedgeStop_ || !hedgeQueue_.empty();
            });
            continue;
        }
        auto now = std::chrono::steady_clock::now();
        if (hedgeQueue_.top().at > now) {
            hedgeCv_.wait_until(lock, hedgeQueue_.top().at);
            continue;
        }
        RelayPtr relay = hedgeQueue_.top().relay.lock();
        hedgeQueue_.pop();
        if (!relay ||
            relay->responded.load(std::memory_order_acquire))
            continue;
        lock.unlock(); // Never send while holding the timer lock.
        fireHedge(relay);
        lock.lock();
    }
}

bool
Router::forward(const RelayPtr &relay, bool hedge)
{
    std::vector<size_t> tried;
    {
        std::lock_guard<std::mutex> lock(relay->mu);
        for (const auto &attempt : relay->attempts)
            tried.push_back(attempt->backend);
    }
    for (size_t index : relay->candidates) {
        if (std::find(tried.begin(), tried.end(), index) !=
            tried.end())
            continue;
        Backend &backend = *backends_[index];
        if (backend.inflight.load(std::memory_order_relaxed) >=
            kMaxInflightPerBackend) {
            bump(backend.counts.saturated);
            continue;
        }
        if (!backend.breaker.allow(nowUs())) {
            bump(backend.counts.failovers);
            continue;
        }
        if (sendTo(relay, index, hedge))
            return true;
    }
    return false;
}

void
Router::fireHedge(const RelayPtr &relay)
{
    // Budget: hedges may add at most hedgeBudget extra load on top
    // of primary forwards (with a floor of one so a cold router can
    // hedge at all). Every forward that is not a hedge is a primary;
    // each hedge count is read after its forward count, so the
    // difference may only undercount primaries.
    uint64_t forwarded = 0, hedges = 0;
    for (const auto &backend : backends_) {
        forwarded += load(backend->counts.forwarded);
        hedges += load(backend->counts.hedges);
    }
    uint64_t primaries = forwarded > hedges ? forwarded - hedges : 0;
    uint64_t allowed = std::max<uint64_t>(
        1, static_cast<uint64_t>(options_.hedgeBudget *
                                 static_cast<double>(primaries)));
    if (hedges >= allowed) {
        bump(hedgesDenied_);
        return;
    }

    forward(relay, /*hedge=*/true);
}

void
Router::handle(const FrameServer::SessionPtr &session,
               const wire::RequestFrame &request)
{
    auto relay = std::make_shared<Relay>();
    relay->session = session;
    relay->id = request.id;
    relay->workload = request.workload;
    relay->episodeSeed = request.episodeSeed;
    relay->modelSeed = request.modelSeed;
    relay->deadline = serve::noDeadline();
    if (request.deadlineUs > 0)
        relay->deadline =
            serve::ServeClock::now() +
            std::chrono::microseconds(request.deadlineUs);
    relay->candidates = candidatesFor(keyHash(
        relay->workload, relay->modelSeed, relay->episodeSeed));

    if (forward(relay, /*hedge=*/false)) {
        scheduleHedge(relay);
        return;
    }

    // Every backend open, saturated or unreachable: shed, never queue.
    serve::Response shed;
    shed.status = serve::RequestStatus::RejectedUnreachable;
    metrics_.recordRejected(relay->workload, shed.status);
    session->respond(relay->id, shed);
}

std::vector<BackendStats>
Router::backendStats() const
{
    std::vector<BackendStats> out;
    out.reserve(backends_.size());
    for (const auto &backend : backends_) {
        BackendStats stats =
            util::snapshot(kBackendFields, backend->counts);
        BreakerSnapshot snap = backend->breaker.snapshot(nowUs());
        stats.endpoint = backend->endpoint;
        stats.down = snap.state != BreakerState::Closed;
        stats.breakerState = breakerStateName(snap.state);
        stats.errorRate = snap.errorRate;
        stats.latencySeconds = snap.latencySeconds;
        stats.downMarks = snap.opens;
        stats.probes = snap.probes;
        stats.inflight =
            backend->inflight.load(std::memory_order_relaxed);
        out.push_back(std::move(stats));
    }
    return out;
}

HedgeStats
Router::hedgeStats() const
{
    HedgeStats stats;
    for (const BackendStats &backend : backendStats()) {
        stats.hedgesSent += backend.hedges;
        stats.hedgesWon += backend.hedgeWins;
        stats.cancelsSent += backend.cancels;
    }
    stats.hedgesDenied = load(hedgesDenied_);
    return stats;
}

util::Table
Router::backendTable() const
{
    util::Table table(util::columns(kBackendFields));
    for (const BackendStats &stats : backendStats())
        table.addRow(util::cells(kBackendFields, stats));
    return table;
}

std::string
Router::backendJson() const
{
    std::string json;
    for (const BackendStats &stats : backendStats())
        json += (json.empty() ? "{" : ",{") +
                util::json(kBackendFields, stats) + "}";
    return "[" + json + "]";
}

std::string
Router::json() const
{
    std::string perBackend;
    uint64_t forwarded = 0;
    for (const BackendStats &stats : backendStats()) {
        perBackend += (perBackend.empty() ? "" : ",") +
                      std::to_string(stats.forwarded);
        forwarded += stats.forwarded;
    }
    return "{\"mode\":\"route\"," + metrics_.json() +
           ",\"shed\":" +
           std::to_string(metrics_.total().rejectedUnreachable) +
           ",\"forwarded\":" + std::to_string(forwarded) +
           ",\"per_backend\":[" + perBackend + "]," +
           util::json(kHedgeFields, hedgeStats()) +
           ",\"backends\":" + backendJson() + "}";
}

} // namespace nsbench::net
