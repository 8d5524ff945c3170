#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <future>
#include <map>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/profiler.hh"
#include "util/failpoint.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"
#include "util/timer.hh"

namespace nsbench::serve
{

namespace
{

namespace fp = util::failpoints;

/** Default replica factory: the process-global workload registry. */
std::unique_ptr<core::Workload>
registryFactory(const std::string &name)
{
    return core::WorkloadRegistry::global().create(name);
}

/** Injected transient run() failure: retried in place. */
struct FaultInjected : std::runtime_error
{
    FaultInjected() : std::runtime_error("injected run fault") {}
};

/** Injected replica poison: the supervisor rebuilds the replica. */
struct ReplicaPoisoned : std::runtime_error
{
    ReplicaPoisoned() : std::runtime_error("injected replica poison")
    {}
};

/** Exponential backoff for retry @p attempt (1-based), shift-capped. */
std::chrono::microseconds
backoffFor(int64_t base_us, int attempt)
{
    int shift = std::min(attempt - 1, 10);
    return std::chrono::microseconds(base_us << shift);
}

} // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)), admission_(options_.queueCapacity)
{
    util::panicIf(options_.workloads.empty(),
                  "Server: no workloads to serve");
    util::panicIf(options_.workers <= 0,
                  "Server: need at least one worker");
    if (!options_.factory)
        options_.factory = registryFactory;

    // Probe each workload's seed sensitivity once: insensitive
    // workloads fold every episode seed onto one flight key (and one
    // cache entry). Construction is cheap; setUp is where the cost
    // lives.
    for (const auto &name : options_.workloads) {
        auto probe = options_.factory(name);
        util::panicIf(!probe,
                      "Server: factory returned null for " + name);
        seedSensitive_[name] = probe->seedSensitive();
    }

    if (options_.resultCache) {
        cache::ResultCacheOptions cacheOptions;
        cacheOptions.maxBytes = options_.cacheBytes;
        cacheOptions.shards = options_.cacheShards;
        cache_ =
            std::make_unique<cache::ResultCache>(cacheOptions);
    }

    workers_.reserve(static_cast<size_t>(options_.workers));
    for (int i = 0; i < options_.workers; ++i)
        workers_.emplace_back([this, i] { workerMain(i); });

    // Block until every worker finished pre-warming its replicas so
    // the first request never observes setUp latency.
    std::unique_lock<std::mutex> lock(readyMu_);
    readyCv_.wait(lock, [this] {
        return readyWorkers_ == options_.workers;
    });
}

Server::~Server() { shutdown(); }

RequestStatus
Server::submit(const std::string &workload, uint64_t seed,
               Callback done, TimePoint deadline, CancelToken cancel)
{
    auto sensitive = seedSensitive_.find(workload);
    if (sensitive == seedSensitive_.end()) {
        metrics_.recordRejected(workload,
                                RequestStatus::RejectedUnknownWorkload);
        return RequestStatus::RejectedUnknownWorkload;
    }
    if (stopping_.load(std::memory_order_acquire)) {
        metrics_.recordRejected(workload,
                                RequestStatus::RejectedShutdown);
        return RequestStatus::RejectedShutdown;
    }

    Waiter waiter{nextId_.fetch_add(1, std::memory_order_relaxed),
                  ServeClock::now(), deadline, std::move(done),
                  std::move(cancel)};
    if (deadline <= waiter.enqueue) {
        metrics_.recordRejected(workload,
                                RequestStatus::RejectedDeadline);
        return RequestStatus::RejectedDeadline;
    }

    // Seed-insensitive workloads score identically for every episode
    // seed; canonicalise onto seed 0 so all of them share one flight
    // and one cache entry.
    Flight flight{workload, seed,
                  cache::ResultCache::keyString(
                      workload, options_.modelSeed,
                      sensitive->second ? seed : 0),
                  waiter.id, waiter.enqueue};

    if (cache_) {
        double score = 0.0;
        if (cache_->lookup(flight.key, &score)) {
            metrics_.count(workload, &WorkloadMetrics::cacheHits);
            metrics_.count(workload, &WorkloadMetrics::submitted);
            Response response;
            response.status = RequestStatus::Ok;
            response.score = score;
            response.cached = true;
            response.shared = 1;
            response.latencySeconds = secondsBetween(
                waiter.enqueue, ServeClock::now());
            metrics_.recordOutcome(workload, response);
            deliver(workload, waiter.done, response);
            return RequestStatus::Ok;
        }
        metrics_.count(workload, &WorkloadMetrics::cacheMisses);
    }

    // A flight already in progress answers this request too; only a
    // new flight needs a queue slot.
    if (flights_.join(flight.key, std::move(waiter)) ==
        cache::SingleFlight<Waiter>::Role::Follower)
        return RequestStatus::Ok;

    // Adaptive gate: shed when queue *delay* (not depth) has stayed
    // over the target — the short-but-slow-queue overload mode. The
    // failpoint forces a shed regardless.
    bool shed = false;
    if (options_.targetSojournUs > 0 &&
        sojournOverloaded(flight.enqueue)) {
        shed = true;
        metrics_.count(workload, &WorkloadMetrics::sojournSheds);
    }
    if (NSBENCH_FAILPOINT(fp::sites::kAdmissionShed))
        shed = true;

    if (shed || !admission_.tryPush(flight)) {
        // tryPush fails both on a full queue and on a closed one;
        // closure means a shutdown raced this submit.
        RequestStatus status =
            shed ? RequestStatus::RejectedOverload
                 : admission_.closed()
                       ? RequestStatus::RejectedShutdown
                       : RequestStatus::RejectedQueueFull;
        metrics_.recordRejected(workload, status);
        // The leader learns the rejection from the return value;
        // requests that joined its flight meanwhile were told Ok, so
        // they learn it through their callbacks.
        TimePoint now = ServeClock::now();
        for (const Waiter &follower : flights_.finish(flight.key)) {
            if (follower.id == flight.leaderId)
                continue;
            Response rejected;
            rejected.status = status;
            rejected.latencySeconds =
                secondsBetween(follower.enqueue, now);
            answer(flight, follower, rejected);
        }
        return status;
    }
    metrics_.count(workload, &WorkloadMetrics::submitted);
    return RequestStatus::Ok;
}

void
Server::deliver(const std::string &workload, const Callback &done,
                const Response &response)
{
    if (!done)
        return;
    try {
        done(response);
        // Chaos site: the callback throws *after* its side effects
        // (models user code that records the result, then dies) —
        // the exactly-once delivery already happened; what's under
        // test is that the worker thread survives it.
        if (NSBENCH_FAILPOINT(fp::sites::kCallback))
            throw FaultInjected();
    } catch (...) {
        metrics_.count(workload, &WorkloadMetrics::callbackFailures);
    }
}

void
Server::answer(const Flight &flight, const Waiter &waiter,
               const Response &response)
{
    // The leader was counted at admission; a follower is counted now.
    if (waiter.id != flight.leaderId)
        metrics_.recordAnswer(flight.workload, response);
    else
        metrics_.recordOutcome(flight.workload, response);
    deliver(flight.workload, waiter.done, response);
}

Response
Server::call(const std::string &workload, uint64_t seed,
             TimePoint deadline)
{
    auto promise = std::make_shared<std::promise<Response>>();
    auto future = promise->get_future();
    RequestStatus status = submit(
        workload, seed,
        [promise](const Response &r) { promise->set_value(r); },
        deadline);
    if (status != RequestStatus::Ok) {
        Response rejected;
        rejected.status = status;
        return rejected;
    }
    return future.get();
}

void
Server::shutdown()
{
    stopping_.store(true, std::memory_order_release);
    admission_.close();
    if (joined_.exchange(true))
        return;
    // The workers drain the admission queue and exit. Every queued
    // flight answers all of its waiters, and a flight whose leader
    // lost the race with close() answers its followers in submit(),
    // so every admitted request completes.
    for (auto &worker : workers_)
        if (worker.joinable())
            worker.join();
}

void
Server::noteSojourn(int64_t sojournUs)
{
    // EWMA with alpha = 1/8 over dispatch-time queue waits. A relaxed
    // CAS loop keeps the estimate exact enough for a shed gate while
    // staying off any lock the hot path shares.
    int64_t prev = sojournEwmaUs_.load(std::memory_order_relaxed);
    int64_t next;
    do {
        next = prev - prev / 8 + sojournUs / 8;
        // First sample seeds the estimate so a cold server does not
        // take eight flights to notice a stuck queue.
        if (prev == 0)
            next = sojournUs;
    } while (!sojournEwmaUs_.compare_exchange_weak(
        prev, next, std::memory_order_relaxed));
}

bool
Server::sojournOverloaded(TimePoint now)
{
    int64_t ewma = sojournEwmaUs_.load(std::memory_order_relaxed);
    int64_t now_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            now.time_since_epoch())
            .count();
    if (ewma <= options_.targetSojournUs) {
        sojournAboveSinceUs_.store(0, std::memory_order_relaxed);
        return false;
    }
    int64_t since =
        sojournAboveSinceUs_.load(std::memory_order_relaxed);
    if (since == 0) {
        // Racing submitters may both store; either timestamp is a
        // valid "first seen above" within the gate's tolerance.
        sojournAboveSinceUs_.store(now_us, std::memory_order_relaxed);
        return false;
    }
    return now_us - since >= options_.sojournGraceUs;
}

void
Server::workerMain(int workerIndex)
{
    (void)workerIndex;
    // Serve requests single-threaded on this worker: all parallelFor
    // kernels run inline, so concurrent workers never contend on the
    // shared pool and the per-request op stream stays on this thread.
    util::ThreadPool::SerialScope serial;

    std::map<std::string, Replica> replicas;
    for (const auto &name : options_.workloads) {
        Replica replica;
        replica.workload = options_.factory(name);
        util::panicIf(!replica.workload,
                      "Server: factory returned null for " + name);
        {
            // Pre-warm under the replica's own profiler so setUp
            // allocations never pollute the process-global one.
            core::Profiler::ThreadTargetScope target(replica.profiler);
            replica.workload->setUp(options_.modelSeed);
        }
        replicas.emplace(name, std::move(replica));
    }

    {
        std::lock_guard<std::mutex> lock(readyMu_);
        readyWorkers_++;
    }
    readyCv_.notify_all();

    while (auto flight = admission_.pop())
        runFlight(replicas, *flight);
}

bool
Server::pruneFlight(const Flight &flight, TimePoint now,
                    size_t *answered)
{
    std::vector<Waiter> dead;
    size_t live = flights_.prune(
        flight.key,
        [now](const Waiter &waiter) {
            return waiter.canceled() || waiter.deadline <= now;
        },
        &dead);
    for (const Waiter &waiter : dead) {
        Response pruned;
        pruned.status = waiter.canceled() ? RequestStatus::Canceled
                                          : RequestStatus::Expired;
        pruned.latencySeconds = secondsBetween(waiter.enqueue, now);
        pruned.queueSeconds = pruned.latencySeconds;
        answer(flight, waiter, pruned);
    }
    *answered += dead.size();
    return live > 0;
}

void
Server::runFlight(std::map<std::string, Replica> &replicas,
                  const Flight &flight)
{
    auto it = replicas.find(flight.workload);
    util::panicIf(it == replicas.end(),
                  "Server: flight for unserved workload " +
                      flight.workload);
    Replica &replica = it->second;
    const bool seedMatters = seedSensitive_.at(flight.workload);

    TimePoint start = ServeClock::now();
    if (options_.targetSojournUs > 0)
        noteSojourn(std::chrono::duration_cast<std::chrono::microseconds>(
                        start - flight.enqueue)
                        .count());

    // Answer expired and canceled waiters without running; when none
    // is left the flight has ended and run() is skipped. The retry
    // loop re-prunes after each backoff, so a long outage never runs
    // work nobody waits for any more (a passed deadline, or a losing
    // hedge's cancel).
    size_t answered = 0;
    if (!pruneFlight(flight, start, &answered)) {
        metrics_.recordFlight(flight.workload, answered);
        return;
    }

    double score = 0.0;
    double service = 0.0;
    double neural = 0.0;
    double symbolic = 0.0;
    // One run() attempt on the current replica. Must be re-entered
    // through replica.workload (not a cached reference): a poisoned
    // attempt may have swapped in a fresh replica.
    auto executeOnce = [&] {
        core::Profiler::ThreadTargetScope target(replica.profiler);
        // Each attempt's phase split starts clean.
        replica.profiler.reset();
        if (seedMatters)
            replica.workload->reseedEpisodes(flight.seed);
        util::WallTimer timer;
        // A firing delay site sleeps in evaluate() and returns false:
        // the stall lands inside the measured service time — the
        // slow-not-dead shard the tail layer (breaker + hedging)
        // exists to route around.
        NSBENCH_FAILPOINT(fp::sites::kWorkerDelay);
        if (NSBENCH_FAILPOINT(fp::sites::kWorkerCrash))
            throw ReplicaPoisoned();
        if (NSBENCH_FAILPOINT(fp::sites::kWorkerRun))
            throw FaultInjected();
        score = replica.workload->run();
        service = timer.elapsed();
        neural =
            replica.profiler.phaseTotals(core::Phase::Neural).seconds;
        symbolic =
            replica.profiler.phaseTotals(core::Phase::Symbolic).seconds;
    };

    // Bounded retry with exponential backoff. A poisoned replica is
    // rebuilt by the supervisor before the next attempt; a transient
    // fault retries on the replica as-is.
    int attempts = 0;
    bool succeeded = false;
    while (true) {
        try {
            executeOnce();
            succeeded = true;
            break;
        } catch (const ReplicaPoisoned &) {
            metrics_.count(flight.workload, &WorkloadMetrics::workerFaults);
            rebuildReplica(flight.workload, replica);
        } catch (...) {
            metrics_.count(flight.workload, &WorkloadMetrics::workerFaults);
        }
        if (attempts >= options_.maxRetries)
            break;
        attempts++;
        metrics_.count(flight.workload, &WorkloadMetrics::retries);
        std::this_thread::sleep_for(
            backoffFor(options_.retryBackoffUs, attempts));
        if (!pruneFlight(flight, ServeClock::now(), &answered)) {
            metrics_.recordFlight(flight.workload, answered);
            return;
        }
    }

    if (succeeded) {
        metrics_.recordExecution(flight.workload, service);
        if (cache_) {
            // Insert-then-finish: a request arriving in between is
            // answered from the fresh entry instead of starting a
            // second run.
            uint64_t evicted = cache_->insert(flight.key, score);
            metrics_.count(flight.workload,
                           &WorkloadMetrics::cacheEvictions, evicted);
        }
    }

    // Fan-out rechecks every waiter: one that gave up or outlived its
    // deadline during the run gets its own Canceled or Expired, never
    // another waiter's. Statuses are fixed before any delivery so the
    // share count divides the phase split exactly.
    TimePoint end = ServeClock::now();
    std::vector<Waiter> waiters = flights_.finish(flight.key);
    std::vector<RequestStatus> statuses;
    statuses.reserve(waiters.size());
    int served = 0;
    for (const Waiter &waiter : waiters) {
        RequestStatus status = waiter.canceled()
                                   ? RequestStatus::Canceled
                               : waiter.deadline <= end
                                   ? RequestStatus::Expired
                               : succeeded ? RequestStatus::Ok
                                           : RequestStatus::Failed;
        served += status == RequestStatus::Ok;
        statuses.push_back(status);
    }
    metrics_.count(flight.workload, &WorkloadMetrics::singleFlightShared,
                   waiters.size() - 1);
    for (size_t i = 0; i < waiters.size(); i++) {
        const Waiter &waiter = waiters[i];
        Response response;
        response.status = statuses[i];
        response.latencySeconds = secondsBetween(waiter.enqueue, end);
        response.queueSeconds = secondsBetween(
            waiter.enqueue, std::max(waiter.enqueue, start));
        response.retries = attempts;
        if (response.status == RequestStatus::Ok) {
            response.score = score;
            response.serviceSeconds = service;
            response.neuralSeconds = neural;
            response.symbolicSeconds = symbolic;
            response.shared = served;
        }
        answer(flight, waiter, response);
    }
    metrics_.recordFlight(flight.workload, answered + waiters.size());
}

void
Server::rebuildReplica(const std::string &name, Replica &replica)
{
    Replica fresh;
    fresh.workload = options_.factory(name);
    util::panicIf(!fresh.workload,
                  "Server: factory returned null for " + name);
    bool built = false;
    {
        core::Profiler::ThreadTargetScope target(fresh.profiler);
        try {
            fresh.workload->setUp(options_.modelSeed);
            built = true;
        } catch (...) {
            // Build-then-swap: a failed rebuild (setUp can itself hit
            // an injected fault) keeps the old replica in place; the
            // retry loop decides what happens to the flight.
        }
    }
    if (!built)
        return;
    replica = std::move(fresh);
    metrics_.count(name, &WorkloadMetrics::replicasReplaced);
}

} // namespace nsbench::serve
