/**
 * @file
 * Throughput/latency cost of the serving resilience layer under
 * injected faults.
 *
 * Serves LNN at the serve preset under saturating closed-loop load
 * and sweeps the worker run()-fault rate across {0%, 1%, 10%} with a
 * deterministic failpoint schedule (serve.worker.run, fixed seed).
 * Each operating point reports sustained throughput, p50/p99 latency
 * tails, faults absorbed and retries issued.
 *
 * The mechanism under test is bounded retry-with-backoff: with
 * maxRetries=8, eight consecutive faulted attempts at a 10% fault
 * rate is a 1e-8 event, so the resilience layer must convert every
 * injected fault into a completion. The acceptance gate requires, at
 * every faulted operating point, zero terminal failures and zero
 * expiries (100% success) while faults actually fired — plus a sane
 * fault-free baseline.
 *
 * Not a paper figure: this tracks the reproduction's own serving
 * runtime (Sec. V deployment recommendations), extended with the
 * fault model of the chaos tier.
 */

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hh"
#include "serve/loadgen.hh"
#include "serve/presets.hh"
#include "serve/server.hh"
#include "util/failpoint.hh"
#include "util/format.hh"
#include "util/table.hh"
#include "workloads/register.hh"

namespace
{

using namespace nsbench;

/** One measured operating point of the fault-rate sweep. */
struct Point
{
    double faultRate = 0.0;
    double throughput = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t expired = 0;
    uint64_t faults = 0;
    uint64_t retries = 0;
    double successRate = 0.0;
};

Point
measure(double fault_rate)
{
    // The schedule is a pure function of this spec: the same fault
    // rate measures the same fault sequence on every run.
    if (fault_rate > 0.0) {
        std::ostringstream spec;
        spec << "serve.worker.run=" << fault_rate << "@1234";
        std::string error =
            util::failpoints::configure(spec.str());
        if (!error.empty()) {
            std::cerr << "failpoint spec: " << error << "\n";
            std::exit(1);
        }
    } else {
        util::failpoints::reset();
    }

    serve::ServerOptions server_options;
    server_options.workloads = {"LNN"};
    server_options.workers = 2;
    server_options.maxRetries = 8;
    server_options.retryBackoffUs = 100;
    server_options.factory = serve::serveFactory;

    serve::LoadgenOptions load_options;
    load_options.openLoop = false;
    load_options.clients = 16;
    load_options.durationSeconds = 1.2;
    load_options.seedUniverse = 16;
    load_options.zipfExponent = 1.1;

    serve::Server server(std::move(server_options));
    serve::LoadgenReport report =
        serve::runLoadgen(server, load_options);
    serve::WorkloadMetrics metrics =
        server.metrics().workload("LNN");
    server.shutdown();
    util::failpoints::reset();

    Point point;
    point.faultRate = fault_rate;
    point.throughput = report.throughput();
    point.p50Ms = metrics.latency.p50() * 1e3;
    point.p99Ms = metrics.latency.p99() * 1e3;
    point.completed = metrics.completed;
    point.failed = metrics.failed;
    point.expired = metrics.expired;
    point.faults = metrics.workerFaults;
    point.retries = metrics.retries;
    point.successRate = metrics.successRate();
    return point;
}

} // namespace

int
main(int argc, char **argv)
{
    workloads::registerAllWorkloads();
    bench::printHeader(
        "Serving resilience under injected worker faults",
        "runtime extra (chaos tier; Sec. V deployment)");

    const std::vector<double> rates = {0.0, 0.01, 0.10};
    util::Table table({"fault%", "req/s", "p50 ms", "p99 ms", "done",
                       "faults", "retries", "failed", "expired",
                       "success%"});
    std::ostringstream json;
    json << "{\"bench\":\"scaling_resilience\",\"points\":[";

    bool pass = true;
    for (size_t r = 0; r < rates.size(); r++) {
        Point point = measure(rates[r]);
        table.addRow({util::fixedStr(point.faultRate * 100.0, 0),
                      util::fixedStr(point.throughput, 1),
                      util::fixedStr(point.p50Ms, 2),
                      util::fixedStr(point.p99Ms, 2),
                      std::to_string(point.completed),
                      std::to_string(point.faults),
                      std::to_string(point.retries),
                      std::to_string(point.failed),
                      std::to_string(point.expired),
                      util::fixedStr(point.successRate * 100.0, 1)});
        json << (r ? "," : "") << "{\"fault_rate\":"
             << point.faultRate << ",\"throughput\":"
             << point.throughput << ",\"p99_ms\":" << point.p99Ms
             << ",\"faults\":" << point.faults << ",\"retries\":"
             << point.retries << ",\"failed\":" << point.failed
             << "}";

        // Gate: every operating point completes everything it
        // admitted; the faulted points must additionally have seen
        // real injected faults (otherwise the sweep measured
        // nothing).
        if (point.failed != 0 || point.expired != 0)
            pass = false;
        if (point.faultRate > 0.0 && point.faults == 0)
            pass = false;
        if (point.faultRate == 0.0 &&
            (point.faults != 0 || point.retries != 0))
            pass = false;
        if (point.completed == 0)
            pass = false;
    }
    json << "],\"pass\":" << (pass ? "true" : "false") << "}";

    table.print(std::cout);
    std::cout << "\nGate: zero terminal failures and zero expiries "
                 "at every fault rate (retries absorb 100% of "
                 "injected faults), nonzero faults at the faulted "
                 "points, a clean fault-free baseline: "
              << (pass ? "PASS" : "FAIL") << ".\n"
              << "\nBENCH_JSON " << json.str() << "\n";
    bench::writeBenchJson(argc, argv, json.str());
    return pass ? 0 : 1;
}
