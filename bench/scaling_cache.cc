/**
 * @file
 * Multi-level memoization: result-cache speedup and score identity.
 *
 * Three parts, two of which gate the exit code:
 *
 *  1. Identity gate — for all seven paper workloads at the serve
 *     presets, scores must be byte-identical with caching off and on
 *     (result cache + symbolic precompute cache, across different
 *     replica counts). Caching is a pure memoization layer: any
 *     difference at all is a correctness bug, so the comparison is
 *     exact double equality, not a tolerance.
 *
 *  2. Throughput gate — NVSA (seed-sensitive, CPU-bound) driven with
 *     a Zipf-skewed 16-seed universe at the default skew (s = 1.1)
 *     and otherwise equal settings must sustain >= 3x the cache-off
 *     throughput with a hit rate >= 50%.
 *
 *  3. Sweep — Zipf skew {0.7, 1.1, 1.4} x cache size {tiny, ample},
 *     reporting throughput, hit rate and evictions at every point.
 *     The tiny budget holds ~2 of the 16 hot entries, so it shows the
 *     LRU keeping the head of the popularity distribution.
 *
 * Not a paper figure: this tracks the reproduction's own memoization
 * layer, motivated by the redundant-computation observations of
 * Sec. V.
 */

#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/config.hh"
#include "common.hh"
#include "serve/loadgen.hh"
#include "serve/presets.hh"
#include "serve/server.hh"
#include "util/format.hh"
#include "util/table.hh"
#include "workloads/register.hh"

namespace
{

using namespace nsbench;

/** One measured loadgen operating point. */
struct Point
{
    double throughput = 0.0;
    double hitRate = 0.0;
    uint64_t completed = 0;
    uint64_t executions = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;
};

/**
 * Runs the standard cache subject — NVSA at the serve preset under
 * closed-loop Zipf load over a 16-seed universe — at one operating
 * point. The cache is pre-warmed with every seed in the universe so
 * the measured window reflects steady state, and metrics are reset
 * after the warm-up either way to keep the windows comparable.
 */
Point
measure(bool cache_on, uint64_t cache_bytes, size_t cache_shards,
        double zipf, double duration_seconds)
{
    const uint64_t universe = 16;

    serve::ServerOptions server_options;
    server_options.workloads = {"NVSA"};
    server_options.workers = 2;
    server_options.factory = serve::serveFactory;
    server_options.resultCache = cache_on;
    server_options.cacheBytes = cache_bytes;
    server_options.cacheShards = cache_shards;

    serve::LoadgenOptions load_options;
    load_options.openLoop = false;
    load_options.clients = 16;
    load_options.durationSeconds = duration_seconds;
    load_options.seedUniverse = universe;
    load_options.zipfExponent = zipf;

    serve::Server server(std::move(server_options));
    for (uint64_t seed = 0; seed < universe; seed++)
        server.call("NVSA", seed);
    server.resetMetrics();

    serve::LoadgenReport report =
        serve::runLoadgen(server, load_options);
    serve::WorkloadMetrics metrics =
        server.metrics().workload("NVSA");

    Point point;
    point.throughput = report.throughput();
    point.hitRate = metrics.cacheHitRate();
    point.completed = metrics.completed;
    point.executions = metrics.executions;
    if (const cache::ResultCache *rc = server.resultCache()) {
        cache::ResultCacheStats stats = rc->stats();
        point.evictions = stats.evictions;
        point.entries = stats.entries;
    }
    server.shutdown();
    return point;
}

} // namespace

int
main(int argc, char **argv)
{
    workloads::registerAllWorkloads();
    bench::printHeader(
        "Multi-level memoization: speedup and score identity",
        "runtime extra (Sec. V redundant computation)");

    std::ostringstream json;
    json << "{\"bench\":\"scaling_cache\"";

    // Part 1: byte-identical scores, cache off vs on, for all seven
    // workloads at three episode seeds. The off pass runs with both
    // cache levels disabled on a single replica; the on pass enables
    // both levels, serves from two replicas, and asks for every seed
    // twice so both the miss path and the hit path are compared.
    const std::vector<uint64_t> seeds = {1, 2, 3};
    std::vector<std::vector<double>> baseline;
    cache::setEnabled(false);
    {
        serve::ServerOptions off;
        off.workloads = bench::paperOrder();
        off.workers = 1;
        off.factory = serve::serveFactory;
        off.resultCache = false;
        serve::Server server(std::move(off));
        for (const std::string &name : bench::paperOrder()) {
            std::vector<double> scores;
            for (uint64_t seed : seeds)
                scores.push_back(server.call(name, seed).score);
            baseline.push_back(scores);
        }
    }

    int identical = 0;
    const int total = static_cast<int>(bench::paperOrder().size());
    util::Table identity_table(
        {"workload", "seed 1", "seed 2", "seed 3", "identical"});
    cache::setEnabled(true);
    {
        serve::ServerOptions on;
        on.workloads = bench::paperOrder();
        on.workers = 2;
        on.factory = serve::serveFactory;
        on.resultCache = true;
        serve::Server server(std::move(on));
        for (size_t w = 0; w < bench::paperOrder().size(); w++) {
            const std::string &name = bench::paperOrder()[w];
            bool same = true;
            for (size_t s = 0; s < seeds.size(); s++) {
                double miss = server.call(name, seeds[s]).score;
                double hit = server.call(name, seeds[s]).score;
                same = same && miss == baseline[w][s] &&
                       hit == baseline[w][s];
            }
            if (same)
                identical++;
            identity_table.addRow(
                {name, util::fixedStr(baseline[w][0], 4),
                 util::fixedStr(baseline[w][1], 4),
                 util::fixedStr(baseline[w][2], 4),
                 same ? "yes" : "NO"});
        }
    }
    cache::resetEnabled();

    std::cout << "Score identity, cache off vs on (exact double "
                 "equality, miss and hit paths):\n";
    identity_table.print(std::cout);
    std::cout << "\n";
    json << ",\"identity_pass\":" << identical
         << ",\"identity_total\":" << total;

    // Part 2: the throughput gate at otherwise equal settings and the
    // default skew. Cache off first so the on pass cannot borrow its
    // precompute state.
    cache::setEnabled(false);
    Point off = measure(false, 64ull << 20, 8, 1.1, 1.5);
    cache::setEnabled(true);
    Point on = measure(true, 64ull << 20, 8, 1.1, 1.5);
    cache::resetEnabled();

    double speedup =
        off.throughput > 0.0 ? on.throughput / off.throughput : 0.0;
    bool gate_pass = speedup >= 3.0 && on.hitRate >= 0.5;

    util::Table gate_table({"cache", "req/s", "hit%", "done", "runs"});
    gate_table.addRow({"off", util::fixedStr(off.throughput, 1), "-",
                       std::to_string(off.completed),
                       std::to_string(off.executions)});
    gate_table.addRow({"on", util::fixedStr(on.throughput, 1),
                       util::fixedStr(on.hitRate * 100.0, 1),
                       std::to_string(on.completed),
                       std::to_string(on.executions)});
    std::cout << "Throughput gate (NVSA, universe 16, zipf 1.1, "
                 "2 workers):\n";
    gate_table.print(std::cout);
    std::cout << "\nspeedup " << util::fixedStr(speedup, 2)
              << "x (gate >= 3x with hit rate >= 50%): "
              << (gate_pass ? "pass" : "FAIL") << "\n\n";
    json << ",\"gate\":{\"off_rps\":" << off.throughput
         << ",\"on_rps\":" << on.throughput
         << ",\"speedup\":" << speedup
         << ",\"hit_rate\":" << on.hitRate
         << ",\"pass\":" << (gate_pass ? "true" : "false") << "}";

    // Part 3: skew x capacity sweep. The tiny budget (one shard, two
    // entries) forces the LRU to track the popularity head; the ample
    // budget holds the whole universe.
    struct Capacity
    {
        const char *label;
        uint64_t bytes;
        size_t shards;
    };
    const std::vector<double> skews = {0.7, 1.1, 1.4};
    const std::vector<Capacity> capacities = {
        {"tiny", 256, 1},
        {"ample", 64ull << 20, 8},
    };

    util::Table sweep_table({"zipf", "cache", "req/s", "hit%",
                             "entries", "evicted"});
    json << ",\"sweep\":[";
    bool first = true;
    cache::setEnabled(true);
    for (double skew : skews) {
        for (const Capacity &cap : capacities) {
            Point point =
                measure(true, cap.bytes, cap.shards, skew, 0.5);
            sweep_table.addRow(
                {util::fixedStr(skew, 1), cap.label,
                 util::fixedStr(point.throughput, 1),
                 util::fixedStr(point.hitRate * 100.0, 1),
                 std::to_string(point.entries),
                 std::to_string(point.evictions)});
            json << (first ? "" : ",") << "{\"zipf\":" << skew
                 << ",\"cache_bytes\":" << cap.bytes
                 << ",\"rps\":" << point.throughput
                 << ",\"hit_rate\":" << point.hitRate
                 << ",\"evictions\":" << point.evictions << "}";
            first = false;
        }
    }
    cache::resetEnabled();
    json << "]}";

    std::cout << "Skew x capacity sweep (cache on):\n";
    sweep_table.print(std::cout);

    bool pass = identical == total && gate_pass;
    std::cout << "\nAcceptance: scores identical on " << identical
              << "/" << total << " workloads, throughput gate "
              << (gate_pass ? "pass" : "FAIL") << " -> "
              << (pass ? "PASS" : "FAIL") << "\n"
              << "\nBENCH_JSON " << json.str() << "\n";
    bench::writeBenchJson(argc, argv, json.str());
    return pass ? 0 : 1;
}
