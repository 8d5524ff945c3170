/**
 * @file
 * Throughput/latency of the serving runtime against a no-sharing
 * baseline.
 *
 * For a CPU-bound, seed-sensitive workload (NVSA at the serve preset,
 * driven with a Zipf-skewed seed universe) and two seed-insensitive
 * ones (LNN, NLM), drives the same saturating closed-loop load twice:
 * once through the server, and once through a bench-local target
 * that runs every request on its own on one of the same number of
 * pre-warmed replicas. Both report sustained throughput with the
 * p50/p95/p99 latency tails.
 *
 * The gain mechanism under test is coalescing: requests for the same
 * (model, seed) are interchangeable by the determinism contract, so
 * the server runs each key once for every request waiting on it
 * (single flight). The baseline shares nothing. The acceptance bar is
 * that the server sustains >= 1.5x the baseline throughput on at
 * least two workloads.
 *
 * Not a paper figure: this tracks the reproduction's own serving
 * runtime, motivated by the deployment recommendations of Sec. V.
 */

#include <condition_variable>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common.hh"
#include "core/profiler.hh"
#include "serve/loadgen.hh"
#include "serve/presets.hh"
#include "serve/server.hh"
#include "util/format.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/threadpool.hh"
#include "workloads/register.hh"

namespace
{

using namespace nsbench;

constexpr int kWorkers = 2;

/** One workload under test and how to drive it. */
struct Subject
{
    std::string name;
    double durationSeconds;
    uint64_t seedUniverse; ///< 0 -> unique seeds (no coalescing).
    double zipfExponent;
};

/** One measured operating point. */
struct Point
{
    double throughput = 0.0;
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    double share = 0.0;
    uint64_t completed = 0;
    uint64_t rejected = 0;
};

/**
 * The no-sharing baseline: each request waits its turn for a free
 * replica, first come first served like the server's queue, and runs
 * on it alone in the calling client's thread, the way a server worker
 * runs a flight (serial kernels, the replica's own profiler).
 */
class ReplicaTarget : public serve::LoadTarget
{
  public:
    ReplicaTarget(const std::string &workload, int replicas)
        : workload_(workload), admitted_(static_cast<uint64_t>(replicas))
    {
        for (int i = 0; i < replicas; i++) {
            auto replica = std::make_unique<Replica>();
            replica->workload = serve::serveFactory(workload);
            core::Profiler::ThreadTargetScope target(replica->profiler);
            replica->workload->setUp(serve::ServerOptions{}.modelSeed);
            free_.push_back(std::move(replica));
        }
    }

    std::vector<std::string>
    servedWorkloads() const override
    {
        return {workload_};
    }

    serve::RequestStatus
    submit(const std::string &workload, uint64_t seed,
           serve::Callback done, serve::TimePoint deadline) override
    {
        serve::Response response = call(workload, seed, deadline);
        done(response);
        return serve::RequestStatus::Ok;
    }

    serve::Response
    call(const std::string &, uint64_t seed, serve::TimePoint) override
    {
        serve::TimePoint start = serve::ServeClock::now();
        std::unique_ptr<Replica> replica;
        {
            // Ticket t may start once t earlier requests have, and a
            // release admits the next ticket.
            std::unique_lock<std::mutex> lock(mu_);
            uint64_t ticket = nextTicket_++;
            freed_.wait(lock, [&] { return ticket < admitted_; });
            replica = std::move(free_.back());
            free_.pop_back();
        }
        serve::Response response;
        {
            util::ThreadPool::SerialScope serial;
            core::Profiler::ThreadTargetScope target(replica->profiler);
            replica->profiler.reset();
            if (replica->workload->seedSensitive())
                replica->workload->reseedEpisodes(seed);
            response.score = replica->workload->run();
        }
        response.latencySeconds =
            serve::secondsBetween(start, serve::ServeClock::now());
        std::lock_guard<std::mutex> lock(mu_);
        latency_.add(response.latencySeconds);
        free_.push_back(std::move(replica));
        admitted_++;
        freed_.notify_all();
        return response;
    }

    /** End-to-end latency of every call so far. */
    util::TailStats
    latency() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return latency_;
    }

  private:
    struct Replica
    {
        std::unique_ptr<core::Workload> workload;
        core::Profiler profiler;
    };

    std::string workload_;
    mutable std::mutex mu_;
    std::condition_variable freed_;
    std::vector<std::unique_ptr<Replica>> free_;
    uint64_t nextTicket_ = 0;
    uint64_t admitted_;
    util::TailStats latency_;
};

serve::LoadgenOptions
loadFor(const Subject &subject)
{
    serve::LoadgenOptions load_options;
    load_options.openLoop = false;
    load_options.clients = 16;
    load_options.durationSeconds = subject.durationSeconds;
    load_options.seedUniverse = subject.seedUniverse;
    load_options.zipfExponent = subject.zipfExponent;
    return load_options;
}

Point
pointFrom(const serve::LoadgenReport &report,
          const util::TailStats &latency, double share)
{
    Point point;
    point.throughput = report.throughput();
    point.p50Ms = latency.p50() * 1e3;
    point.p95Ms = latency.p95() * 1e3;
    point.p99Ms = latency.p99() * 1e3;
    point.share = share;
    point.completed = report.completed;
    point.rejected = report.rejected;
    return point;
}

Point
measureBaseline(const Subject &subject)
{
    ReplicaTarget target(subject.name, kWorkers);
    serve::LoadgenReport report =
        serve::runLoadgen(target, loadFor(subject));
    return pointFrom(report, target.latency(), 1.0);
}

Point
measureServer(const Subject &subject)
{
    serve::ServerOptions server_options;
    server_options.workloads = {subject.name};
    server_options.workers = kWorkers;
    server_options.factory = serve::serveFactory;

    serve::Server server(std::move(server_options));
    serve::LoadgenReport report =
        serve::runLoadgen(server, loadFor(subject));
    serve::WorkloadMetrics metrics =
        server.metrics().workload(subject.name);
    server.shutdown();
    return pointFrom(report, metrics.latency, metrics.shareFactor());
}

} // namespace

int
main(int argc, char **argv)
{
    workloads::registerAllWorkloads();
    bench::printHeader("Serving throughput/latency vs no sharing",
                       "runtime extra (Sec. V deployment)");

    // NVSA is seed-sensitive: coalescing only merges requests that
    // ask for the same episode seed, so it is driven with a small
    // Zipf-skewed seed universe (popular puzzles repeat). LNN and
    // NLM declare seedSensitive() == false and coalesce wholesale.
    const std::vector<Subject> subjects = {
        {"NVSA", 2.5, 4, 1.3},
        {"LNN", 1.2, 16, 1.1},
        {"NLM", 1.2, 16, 1.1},
    };

    util::Table table({"workload", "mode", "req/s", "gain", "share",
                       "p50 ms", "p95 ms", "p99 ms", "done", "rej"});
    std::ostringstream json;
    json << "{\"bench\":\"scaling_serve\",\"workloads\":[";

    auto addRow = [&](const Subject &subject, const char *mode,
                      const Point &point, double gain) {
        table.addRow({subject.name, mode,
                      util::fixedStr(point.throughput, 1),
                      util::fixedStr(gain, 2) + "x",
                      util::fixedStr(point.share, 2),
                      util::fixedStr(point.p50Ms, 2),
                      util::fixedStr(point.p95Ms, 2),
                      util::fixedStr(point.p99Ms, 2),
                      std::to_string(point.completed),
                      std::to_string(point.rejected)});
    };
    auto pointJson = [](const Point &point) {
        std::ostringstream out;
        out << "{\"throughput\":" << point.throughput
            << ",\"p50_ms\":" << point.p50Ms
            << ",\"p99_ms\":" << point.p99Ms
            << ",\"share\":" << point.share << "}";
        return out.str();
    };

    int passing = 0;
    for (size_t s = 0; s < subjects.size(); s++) {
        const Subject &subject = subjects[s];
        Point baseline = measureBaseline(subject);
        Point served = measureServer(subject);
        double gain = baseline.throughput > 0.0
                          ? served.throughput / baseline.throughput
                          : 0.0;
        if (gain >= 1.5)
            passing++;
        addRow(subject, "no sharing", baseline, 1.0);
        addRow(subject, "server", served, gain);
        json << (s ? "," : "") << "{\"name\":\"" << subject.name
             << "\",\"baseline\":" << pointJson(baseline)
             << ",\"server\":" << pointJson(served)
             << ",\"gain\":" << gain << "}";
    }
    json << "],\"passing\":" << passing << "}";

    table.print(std::cout);
    std::cout << "\nGain is server throughput versus the no-sharing "
                 "baseline under identical load ("
              << kWorkers
              << " replicas each, 16 closed-loop clients). The "
                 "serving acceptance bar is >= 1.5x on at least two "
                 "workloads: "
              << passing << "/3 pass.\n"
              << "\nBENCH_JSON " << json.str() << "\n";
    bench::writeBenchJson(argc, argv, json.str());
    return passing >= 2 ? 0 : 1;
}
