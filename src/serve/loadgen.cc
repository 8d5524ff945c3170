#include "serve/loadgen.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <thread>

#include "util/fields.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/timer.hh"

namespace nsbench::serve
{

namespace
{

/** The Zipf sampler lives in loadgen.hh so tests can reach it. */
using SeedSampler = ZipfSeedSampler;

/** Samples workload names from the configured mix. */
class MixSampler
{
  public:
    MixSampler(const LoadTarget &target,
               const LoadgenOptions &options)
    {
        if (options.mix.empty()) {
            names_ = target.servedWorkloads();
            weights_.assign(names_.size(), 1.0);
        } else {
            for (const auto &[name, weight] : options.mix) {
                util::panicIf(weight <= 0.0,
                              "loadgen: mix weight must be positive");
                names_.push_back(name);
                weights_.push_back(weight);
            }
        }
        util::panicIf(names_.empty(), "loadgen: empty workload mix");
    }

    const std::string &
    sample(util::Rng &rng) const
    {
        if (names_.size() == 1)
            return names_.front();
        return names_[rng.categorical(weights_)];
    }

  private:
    std::vector<std::string> names_;
    std::vector<double> weights_;
};

/**
 * Outcome accounting for one loadgen window. Every request ends in
 * exactly one status, from submit() or from its callback, and is
 * counted where the shared status table (statusRow) says: a
 * rejection is never an admission, however it arrived.
 */
struct Tracker
{
    std::mutex mu;
    std::condition_variable cv;
    uint64_t outstanding = 0;
    WorkloadMetrics counts;

    /** Counts one request that ended with @p status; @p settles
     *  when it held a makeCallback() slot (its callback fired, or its
     *  submit was rejected and the callback never will). */
    void
    count(RequestStatus status, bool settles = false)
    {
        std::lock_guard<std::mutex> lock(mu);
        counts.*statusRow(status).counter += 1;
        if (settles && --outstanding == 0)
            cv.notify_all();
    }

    Callback
    makeCallback()
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            outstanding++;
        }
        return [this](const Response &response) {
            count(response.status, true);
        };
    }

    void
    drain()
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return outstanding == 0; });
    }

    /** Fills @p report's outcome counters; submitted must be set. */
    void
    fill(LoadgenReport &report)
    {
        std::lock_guard<std::mutex> lock(mu);
        report.completed = counts.completed;
        // The loadgen never cancels, but a Canceled answer is still
        // an admitted request that ended without a score.
        report.expired = counts.expired + counts.canceled;
        report.failed = counts.failed;
        report.rejected = counts.rejected();
        report.admitted = report.submitted - report.rejected;
    }
};

/** A double as an ostream prints it (six significant digits). */
std::string
number(double value)
{
    std::ostringstream out;
    out << value;
    return out.str();
}

const util::Fields<LoadgenReport> kReportFields = {
    {nullptr, "submitted", &LoadgenReport::submitted},
    {nullptr, "admitted", &LoadgenReport::admitted},
    {nullptr, "completed", &LoadgenReport::completed},
    {nullptr, "expired", &LoadgenReport::expired},
    {nullptr, "failed", &LoadgenReport::failed},
    {nullptr, "rejected", &LoadgenReport::rejected},
    {nullptr, "offered_rate", nullptr,
     [](const LoadgenReport &r) { return number(r.offeredRate); }},
    {nullptr, "throughput", nullptr,
     [](const LoadgenReport &r) { return number(r.throughput()); }},
};

TimePoint
deadlineFor(const LoadgenOptions &options)
{
    if (options.deadlineMs <= 0.0)
        return noDeadline();
    return ServeClock::now() +
           std::chrono::microseconds(static_cast<int64_t>(
               options.deadlineMs * 1000.0));
}

LoadgenReport
runOpenLoop(LoadTarget &target, const LoadgenOptions &options)
{
    util::Rng rng(options.seed);
    SeedSampler seeds(options.seedUniverse, options.zipfExponent);
    MixSampler mix(target, options);
    Tracker tracker;
    LoadgenReport report;

    util::panicIf(options.rateHz <= 0.0,
                  "loadgen: open loop needs a positive rate");
    util::panicIf(options.rateHz > kMaxRateHz,
                  "loadgen: open-loop rate above kMaxRateHz");
    util::WallTimer wall;
    TimePoint start = ServeClock::now();
    TimePoint windowEnd =
        start + std::chrono::microseconds(static_cast<int64_t>(
                    options.durationSeconds * 1e6));
    // Poisson process: exponential inter-arrival gaps at rateHz,
    // scheduled against absolute times so submit cost never skews the
    // offered rate. Arrival times accumulate in double seconds, so a
    // gap shorter than one clock tick still moves the schedule on.
    double arrival = 0.0;
    TimePoint next = start;
    while (next < windowEnd) {
        std::this_thread::sleep_until(next);
        const std::string &workload = mix.sample(rng);
        uint64_t seed = seeds.sample(rng, report.submitted);
        Callback done = tracker.makeCallback();
        RequestStatus status = target.submit(
            workload, seed, std::move(done), deadlineFor(options));
        report.submitted++;
        if (status != RequestStatus::Ok)
            tracker.count(status, true);
        arrival += -std::log(1.0 - rng.uniformDouble()) / options.rateHz;
        next = start + std::chrono::duration_cast<ServeClock::duration>(
                           std::chrono::duration<double>(arrival));
    }

    tracker.drain();
    report.wallSeconds = wall.elapsed();
    tracker.fill(report);
    report.offeredRate = options.durationSeconds > 0.0
                             ? static_cast<double>(report.submitted) /
                                   options.durationSeconds
                             : 0.0;
    return report;
}

LoadgenReport
runClosedLoop(LoadTarget &target, const LoadgenOptions &options)
{
    util::panicIf(options.clients <= 0,
                  "loadgen: closed loop needs at least one client");
    SeedSampler seeds(options.seedUniverse, options.zipfExponent);
    MixSampler mix(target, options);
    Tracker tracker;
    LoadgenReport report;

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> submitted{0};

    util::WallTimer wall;
    std::vector<std::thread> clients;
    clients.reserve(static_cast<size_t>(options.clients));
    for (int c = 0; c < options.clients; ++c) {
        clients.emplace_back([&, c] {
            util::Rng rng(options.seed +
                          0x9E3779B97F4A7C15ULL *
                              static_cast<uint64_t>(c + 1));
            while (!stop.load(std::memory_order_acquire)) {
                const std::string &workload = mix.sample(rng);
                uint64_t unique =
                    submitted.fetch_add(1, std::memory_order_relaxed);
                uint64_t seed = seeds.sample(rng, unique);
                tracker.count(
                    target.call(workload, seed, deadlineFor(options))
                        .status);
            }
        });
    }

    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(
            options.durationSeconds * 1e6)));
    stop.store(true, std::memory_order_release);
    for (auto &client : clients)
        client.join();

    report.wallSeconds = wall.elapsed();
    report.submitted = submitted.load();
    tracker.fill(report);
    report.offeredRate = options.durationSeconds > 0.0
                             ? static_cast<double>(report.submitted) /
                                   options.durationSeconds
                             : 0.0;
    return report;
}

} // namespace

LoadgenReport
runLoadgen(LoadTarget &target, const LoadgenOptions &options)
{
    return options.openLoop ? runOpenLoop(target, options)
                            : runClosedLoop(target, options);
}

LoadgenReport
runLoadgen(Server &server, const LoadgenOptions &options)
{
    ServerTarget target(server);
    return runLoadgen(target, options);
}

std::string
reportJson(const std::string &mode, const LoadgenReport &report)
{
    return "\"mode\":" + util::jsonString(mode) + "," +
           util::json(kReportFields, report);
}

std::string
loadgenJson(const std::string &mode, const LoadgenReport &report,
            const ServerMetrics &metrics)
{
    util::TailStats latency = metrics.total().latency;
    return "{" + reportJson(mode, report) +
           ",\"p50_ms\":" + number(latency.p50() * 1e3) +
           ",\"p95_ms\":" + number(latency.p95() * 1e3) +
           ",\"p99_ms\":" + number(latency.p99() * 1e3) + "}";
}

} // namespace nsbench::serve
