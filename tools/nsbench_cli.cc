/**
 * @file
 * The `nsbench` command-line front end.
 *
 * Subcommands:
 *   list                      registered workloads
 *   devices                   modeled devices
 *   run <workload> [options]  profile one workload and print reports
 *   serve [options]           serve workloads under closed-loop load
 *   loadgen [options]         serve under an open-loop Poisson load
 *   route [options]           shard requests across TCP backends
 *
 * `serve` and `loadgen` start an inference server over pre-warmed
 * replicas, drive it with the built-in load generator for a
 * configured window, then drain gracefully and print the SLO report
 * (p50/p95/p99 latency, throughput, neural/symbolic split).
 * They share options; they differ only in the default discipline
 * (closed loop vs open loop, overridable with --open/--closed).
 *
 * Networking (docs/DESIGN.md §7h): `serve --listen [HOST:]PORT`
 * exposes the server over TCP instead of driving it in-process;
 * `serve|loadgen --connect HOST:PORT --workloads A,B` runs the same
 * load generator against a remote server; `route --listen PORT
 * --backends H:P,H:P` shards requests across several servers by
 * consistent hashing. All serving modes accept `--json PATH` for a
 * machine-readable result record.
 *
 * Options for `run`:
 *   --seed N       RNG seed (default 42)
 *   --runs N       repeat the profiled run N times (default 1)
 *   --threads N    width of the parallel runtime, 1..1024 (default:
 *                  NSBENCH_THREADS env var, else hardware concurrency)
 *   --simd MODE    kernel backend: "scalar", "avx2" or "auto"
 *                  (default: NSBENCH_SIMD env var, else CPUID)
 *   --cache MODE   memoization: "on" enables the seed-invariant
 *                  precompute cache (and, for serve/loadgen, the
 *                  request-result cache); "off" disables both
 *                  (default: NSBENCH_CACHE env var, else off)
 *   --cache-mb N   byte budget per cache level, in MiB
 *   --csv          emit CSV instead of aligned tables
 *   --device NAME  also project the op stream onto one device
 *                  ("all" projects onto every modeled device)
 *   --pipeline[=D] run the episodes through the stage-pipelined
 *                  executor (inter-stage queue depth D, default 2)
 *                  instead of a serial loop, and report the measured
 *                  overlap speedup next to the sim::schedule
 *                  prediction; profiles over --runs episodes
 *                  (default 8 when --runs is 1)
 *
 * Resilience options for `serve`/`loadgen` (see docs/DESIGN.md §7f):
 *   --faults SPEC  arm deterministic failpoints, e.g.
 *                  "serve.worker.run=0.1@7"; overrides the
 *                  NSBENCH_FAILPOINTS environment variable
 *   --retries N    re-attempts for a failed run() (default 2)
 *   --retry-backoff-us N  first retry backoff; doubles per retry
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/config.hh"
#include "cache/precompute.hh"
#include "core/profiler.hh"
#include "exec/pipeline.hh"
#include "common.hh"
#include "net/client.hh"
#include "net/router.hh"
#include "net/tcp_server.hh"
#include "serve/loadgen.hh"
#include "serve/presets.hh"
#include "serve/server.hh"
#include "core/report.hh"
#include "core/workload.hh"
#include "sim/device.hh"
#include "sim/projection.hh"
#include "util/failpoint.hh"
#include "util/format.hh"
#include "util/simd.hh"
#include "util/stats.hh"
#include "util/threadpool.hh"
#include "util/timer.hh"
#include "workloads/register.hh"

namespace
{

using namespace nsbench;

int
usage()
{
    std::cerr
        << "usage: nsbench <command>\n"
           "  nsbench list\n"
           "  nsbench devices\n"
           "  nsbench run <workload> [--seed N] [--runs N]\n"
           "              [--threads N] [--simd scalar|avx2|auto]\n"
           "              [--cache on|off] [--cache-mb N] [--csv]\n"
           "              [--device NAME|all] [--pipeline[=D]]\n"
           "  nsbench serve|loadgen [--workloads A,B,...]\n"
           "              [--listen [HOST:]PORT] (serve over TCP)\n"
           "              [--connect HOST:PORT] (drive a remote\n"
           "               server; needs --workloads)\n"
           "              [--json PATH]\n"
           "              [--workers N] [--queue N]\n"
           "              [--model-seed N]\n"
           "              [--cache on|off] [--cache-mb N]\n"
           "              [--preset serve|default]\n"
           "              [--open|--closed] [--rate HZ] [--clients N]\n"
           "              [--duration S] [--seed N]\n"
           "              [--seed-universe N] [--zipf S]\n"
           "              [--deadline-ms MS] [--mix A=W,B=W] [--csv]\n"
           "              [--faults SPEC] [--retries N]\n"
           "              [--retry-backoff-us N]\n"
           "              [--target-sojourn-us N]\n"
           "              [--sojourn-grace-us N]\n"
           "  nsbench route --listen [HOST:]PORT\n"
           "              --backends HOST:PORT,HOST:PORT,...\n"
           "              [--duration S] [--json PATH] [--csv]\n"
           "              [--no-hedging] [--hedge-budget F]\n"
           "              [--hedge-min-delay-us N]\n"
           "              [--hedge-max-delay-us N]\n"
           "              [--breaker-error-rate F]\n"
           "              [--breaker-latency-factor F]\n"
           "              [--retry-down S]\n";
    return 2;
}

void
printTable(const util::Table &table, bool csv)
{
    if (csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
}

/** util::parseWhole for the value of @p flag; exits 2 on bad input. */
template <typename T>
T
numberArg(const std::string &flag, const std::string &text)
{
    T value{};
    if (!util::parseWhole(text, &value)) {
        std::cerr << flag << " must be a number, got '" << text
                  << "'\n";
        std::exit(2);
    }
    return value;
}

/**
 * A thread count (--threads, --workers, --clients); exits 2 above
 * util::kMaxThreads, before any thread is started. The lower bound is
 * each flag's own check.
 */
int
threadCountArg(const std::string &flag, const std::string &text)
{
    int count = numberArg<int>(flag, text);
    if (count > util::kMaxThreads) {
        std::cerr << flag << " must be at most " << util::kMaxThreads
                  << "\n";
        std::exit(2);
    }
    return count;
}

/** --cache-mb N as a byte budget; exits 2 unless 1 <= N < 2^44. */
uint64_t
cacheBytesArg(const char *text)
{
    constexpr uint64_t max_mb = UINT64_MAX >> 20; // mb << 20 fits.
    uint64_t mb = numberArg<uint64_t>("--cache-mb", text);
    if (mb < 1 || mb > max_mb) {
        std::cerr << "--cache-mb must be at least 1 and at most "
                  << max_mb << "\n";
        std::exit(2);
    }
    return mb << 20;
}

/**
 * Parses `--pipeline` / `--pipeline=D` into a queue depth (bare form
 * means 2); returns false when @p arg is some other option. Exits
 * with a usage error on a non-positive depth.
 */
bool
parsePipelineArg(const std::string &arg, int *depth)
{
    if (arg == "--pipeline") {
        *depth = 2;
        return true;
    }
    const std::string prefix = "--pipeline=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    *depth = numberArg<int>("--pipeline", arg.substr(prefix.size()));
    if (*depth < 1) {
        std::cerr << "--pipeline depth must be positive\n";
        std::exit(2);
    }
    return true;
}

/** Handles --cache on|off; exits with usage error on anything else. */
bool
parseCacheMode(const std::string &mode)
{
    if (mode == "on") {
        cache::setEnabled(true);
        return true;
    }
    if (mode == "off") {
        cache::setEnabled(false);
        return false;
    }
    std::cerr << "--cache must be on or off\n";
    std::exit(2);
}

/** One-line summary of the precompute cache's residency. */
void
printPrecomputeLine()
{
    cache::PrecomputeStats stats =
        cache::PrecomputeCache::global().stats();
    std::cout << "precompute cache: "
              << util::humanBytes(stats.residentBytes)
              << " resident in " << stats.entries << " entr"
              << (stats.entries == 1 ? "y" : "ies") << " ("
              << stats.hits << " hit(s), " << stats.builds
              << " build(s), " << stats.evictions
              << " eviction(s))\n";
}

int
cmdList()
{
    auto &registry = core::WorkloadRegistry::global();
    util::Table table({"workload", "paradigm", "task"});
    for (const auto &name : registry.names()) {
        auto w = registry.create(name);
        table.addRow({w->name(),
                      std::string(core::paradigmName(w->paradigm())),
                      w->taskDescription()});
    }
    table.print(std::cout);
    return 0;
}

int
cmdDevices()
{
    util::Table table({"device", "peak GFLOP/s", "bandwidth GB/s",
                       "ridge FLOP/B", "launch us", "TDP W"});
    for (const auto &d : sim::allDevices()) {
        table.addRow({d.name, util::fixedStr(d.peakGflops, 0),
                      util::fixedStr(d.memBandwidthGBs, 1),
                      util::fixedStr(d.ridgeIntensity(), 1),
                      util::fixedStr(d.launchOverheadUs, 1),
                      util::fixedStr(d.tdpWatts, 0)});
    }
    table.print(std::cout);
    return 0;
}

/**
 * `nsbench run --pipeline`: executes the episode train seed..seed+N-1
 * both serially and through the stage-pipelined executor, prints the
 * per-stage breakdown and the measured-vs-predicted overlap speedup,
 * and exits 1 if the pipelined scores are not byte-identical to the
 * serial loop.
 */
int
runPipelinedReport(core::Workload &workload, uint64_t seed, int runs,
                   int depth, bool csv, double setup_s)
{
    // A single run is not a pipeline; default to a short episode
    // train when --runs was left at 1.
    int episodes = runs > 1 ? runs : 8;
    std::vector<uint64_t> seeds;
    seeds.reserve(static_cast<size_t>(episodes));
    for (int i = 0; i < episodes; i++)
        seeds.push_back(exec::episodeSeed(seed, i));

    util::WallTimer serial_timer;
    std::vector<double> serial =
        exec::runSerialEpisodes(workload, seeds);
    double serial_wall = serial_timer.elapsed();

    exec::PipelineOptions options;
    options.depth = depth;
    exec::PipelineResult piped =
        exec::runPipelined(workload, seeds, options);

    std::vector<double> stage_seconds;
    util::Table table({"stage", "phase", "busy", "per-episode",
                       "neural", "symbolic"});
    for (const exec::StageReport &stage : piped.stages) {
        stage_seconds.push_back(stage.busySeconds);
        table.addRow(
            {stage.name, std::string(core::phaseName(stage.phase)),
             util::humanSeconds(stage.busySeconds),
             util::humanSeconds(stage.busySeconds / episodes),
             util::humanSeconds(stage.neural.seconds),
             util::humanSeconds(stage.symbolic.seconds)});
    }
    double predicted = exec::predictedSpeedup(stage_seconds, episodes);
    bool identical =
        serial.size() == piped.scores.size() &&
        std::equal(serial.begin(), serial.end(), piped.scores.begin(),
                   [](double a, double b) {
                       return std::memcmp(&a, &b, sizeof a) == 0;
                   });

    if (!csv) {
        std::cout << "workload:  " << workload.name() << " ("
                  << core::paradigmName(workload.paradigm())
                  << ")\nepisodes:  " << episodes << " (seeds "
                  << seed << ".." << seed + episodes - 1
                  << ")\nstages:    " << workload.stageCount()
                  << "  queue depth " << depth
                  << "\nsetup:     " << util::humanSeconds(setup_s)
                  << "\n\n";
    }
    printTable(table, csv);
    std::cout << "\nserial:    " << util::humanSeconds(serial_wall)
              << "   pipelined: "
              << util::humanSeconds(piped.wallSeconds) << "   ("
              << util::fixedStr(piped.wallSeconds > 0.0
                                    ? serial_wall / piped.wallSeconds
                                    : 1.0,
                                2)
              << "x end-to-end)\noverlap:   "
              << util::fixedStr(piped.overlapSpeedup(), 2)
              << "x measured   " << util::fixedStr(predicted, 2)
              << "x predicted (sim::schedule)\nidentity:  "
              << (identical
                      ? "pipelined scores byte-identical to serial"
                      : "MISMATCH: pipelined scores differ from "
                        "serial")
              << "\n";
    return identical ? 0 : 1;
}

int
cmdRun(int argc, char **argv)
{
    if (argc < 1)
        return usage();
    std::string name = argv[0];
    uint64_t seed = 42;
    int runs = 1;
    int pipeline_depth = 0;
    bool csv = false;
    // --device targets, resolved before the workload is built.
    std::vector<const sim::DeviceSpec *> devices;

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--seed") {
            seed = numberArg<uint64_t>(arg, next());
        } else if (arg == "--runs") {
            runs = numberArg<int>(arg, next());
        } else if (arg == "--threads") {
            int threads = threadCountArg(arg, next());
            if (threads < 1) {
                std::cerr << "--threads must be positive\n";
                return 2;
            }
            util::ThreadPool::setGlobalThreads(threads);
        } else if (arg == "--simd") {
            std::string mode = next();
            if (mode == "scalar") {
                util::simd::setBackend(util::simd::Backend::Scalar);
            } else if (mode == "avx2") {
                if (!util::simd::avx2Supported()) {
                    std::cerr << "--simd avx2: this host has no "
                                 "AVX2 support\n";
                    return 2;
                }
                util::simd::setBackend(util::simd::Backend::Avx2);
            } else if (mode == "auto") {
                util::simd::resetBackend();
            } else {
                std::cerr << "--simd must be scalar, avx2 or auto\n";
                return 2;
            }
        } else if (arg == "--cache") {
            parseCacheMode(next());
        } else if (arg == "--cache-mb") {
            cache::PrecomputeCache::global().setMaxBytes(
                cacheBytesArg(next()));
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--device") {
            std::string device_name = next();
            devices.clear();
            for (const auto &d : sim::allDevices()) {
                if (device_name == "all" || d.name == device_name)
                    devices.push_back(&d);
            }
            if (devices.empty()) {
                std::cerr << "unknown device '" << device_name
                          << "'; try `nsbench devices`\n";
                return 1;
            }
        } else if (parsePipelineArg(arg, &pipeline_depth)) {
            // depth captured by the parser
        } else {
            std::cerr << "unknown option " << arg << "\n";
            return usage();
        }
    }

    auto &registry = core::WorkloadRegistry::global();
    if (!registry.contains(name)) {
        std::cerr << "unknown workload '" << name
                  << "'; try `nsbench list`\n";
        return 1;
    }
    if (runs < 1) {
        std::cerr << "--runs must be positive\n";
        return 2;
    }

    auto workload = registry.create(name);
    util::WallTimer setup_timer;
    workload->setUp(seed);
    double setup_s = setup_timer.elapsed();

    if (pipeline_depth > 0)
        return runPipelinedReport(*workload, seed, runs,
                                  pipeline_depth, csv, setup_s);

    auto &prof = core::globalProfiler();
    prof.reset();
    util::RunningStat wall;
    double score = 0.0;
    for (int r = 0; r < runs; r++) {
        util::WallTimer timer;
        score = workload->run();
        wall.add(timer.elapsed());
    }

    if (!csv) {
        std::cout << "workload: " << workload->name() << " ("
                  << core::paradigmName(workload->paradigm())
                  << ")\ntask:     " << workload->taskDescription()
                  << "\nscore:    " << util::fixedStr(score, 3)
                  << "\nwall:     " << util::humanSeconds(wall.mean())
                  << " mean over " << runs << " run(s)"
                  << (runs > 1 ? " (stddev " +
                                     util::humanSeconds(wall.stddev()) +
                                     ")"
                               : "")
                  << "\nstorage:  "
                  << util::humanBytes(workload->storageBytes())
                  << "\nthreads:  " << util::ThreadPool::globalThreads()
                  << "\nsimd:     " << util::simd::activeBackendName()
                  << "\ncache:    "
                  << (cache::enabled() ? "on" : "off")
                  << "\nsetup:    " << util::humanSeconds(setup_s)
                  << "\n\n";
    }

    printTable(core::phaseBreakdownTable(prof), csv);
    std::cout << "\n";
    printTable(core::regionTable(prof), csv);
    std::cout << "\n";
    printTable(core::topOpsTable(prof, 12), csv);
    std::cout << "\n";
    printTable(core::memoryTable(prof), csv);
    if (!csv && cache::enabled()) {
        // Precompute residency lives outside the logical-liveness
        // peaks above; report it alongside the memory table.
        std::cout << "\n";
        printPrecomputeLine();
    }
    if (!prof.sparsityRecords().empty()) {
        std::cout << "\n";
        printTable(core::sparsityTable(prof), csv);
    }

    if (!devices.empty())
        std::cout << "\n";
    for (const sim::DeviceSpec *device : devices) {
        auto proj = sim::projectProfile(*device, prof);
        std::cout << device->name << ": "
                  << util::humanSeconds(proj.totalSeconds)
                  << " projected (neural "
                  << util::percentStr(proj.neuralFraction())
                  << ", symbolic "
                  << util::percentStr(proj.symbolicFraction())
                  << ")\n";
    }
    return 0;
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> parts;
    std::stringstream stream(text);
    std::string part;
    while (std::getline(stream, part, ','))
        if (!part.empty())
            parts.push_back(part);
    return parts;
}

/**
 * Everything `serve`, `loadgen` and `route` parse — one struct, one
 * parser, one source of defaults for the whole serving surface
 * (in-process, TCP front end, remote load generation, router).
 */
struct ServeCli
{
    serve::ServerOptions server;
    serve::LoadgenOptions load;
    bool csv = false;
    bool usePreset = true;
    std::string listen;   ///< --listen [HOST:]PORT (serve / route).
    std::string connect;  ///< --connect HOST:PORT (remote loadgen).
    std::vector<std::string> backends; ///< --backends (route only).
    std::string jsonPath; ///< --json PATH (bench-style emission).
    bool workloadsGiven = false; ///< --workloads appeared.
    /** Router tail-tolerance knobs (route only); listen/backends
     *  are filled from the fields above by cmdRoute. */
    net::RouterOptions router;

    ServeCli()
    {
        server.workloads = {"LNN", "LTN", "NLM"};
        // Both cache levels follow NSBENCH_CACHE unless --cache says
        // otherwise.
        server.resultCache = cache::enabled();
    }
};

/**
 * net::parseEndpoint for one value of @p flag; exits 2 on a bad spec,
 * before any socket or thread exists. A bare PORT takes
 * @p defaultHost when one is given (--listen).
 */
net::Endpoint
endpointArg(const std::string &flag, const std::string &spec,
            const std::string &defaultHost = "")
{
    bool bare = !defaultHost.empty() &&
                spec.find(':') == std::string::npos;
    std::optional<net::Endpoint> endpoint =
        net::parseEndpoint(bare ? defaultHost + ":" + spec : spec);
    if (!endpoint) {
        std::cerr << flag << " needs "
                  << (defaultHost.empty() ? "HOST:" : "[HOST:]")
                  << "PORT with HOST an IPv4 address or localhost and "
                     "PORT in 1..65535, got '"
                  << spec << "'\n";
        std::exit(2);
    }
    return *endpoint;
}

/** "[HOST:]PORT"; a bare port binds the default address. */
net::FrameServerOptions
parseListenSpec(const std::string &spec)
{
    net::FrameServerOptions options;
    net::Endpoint endpoint = endpointArg("--listen", spec, options.host);
    options.host = endpoint.host;
    options.port = endpoint.port;
    return options;
}

/** "HOST:PORT" of the server to drive. */
net::ClientOptions
parseConnectSpec(const std::string &spec)
{
    net::Endpoint endpoint = endpointArg("--connect", spec);
    net::ClientOptions options;
    options.host = endpoint.host;
    options.port = endpoint.port;
    return options;
}

/**
 * Parses the shared serve/loadgen/route option set into @p cli.
 * @return -1 on success, else the exit code to return.
 */
int
parseServeArgs(int argc, char **argv, ServeCli *cli)
{
    serve::ServerOptions &server_options = cli->server;
    serve::LoadgenOptions &load_options = cli->load;

    for (int i = 0; i < argc; i++) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--workloads") {
            server_options.workloads = splitList(next());
            cli->workloadsGiven = true;
        } else if (arg == "--workers") {
            server_options.workers = threadCountArg(arg, next());
        } else if (arg == "--queue") {
            // Checked before the size_t cast: a negative count would
            // wrap into an effectively unbounded queue.
            auto queue = numberArg<int64_t>(arg, next());
            if (queue < 1) {
                std::cerr << "--queue must be positive\n";
                return 2;
            }
            server_options.queueCapacity = static_cast<size_t>(queue);
        } else if (arg == "--model-seed") {
            server_options.modelSeed = numberArg<uint64_t>(arg, next());
        } else if (arg == "--cache") {
            server_options.resultCache = parseCacheMode(next());
        } else if (arg == "--cache-mb") {
            server_options.cacheBytes = cacheBytesArg(next());
            cache::PrecomputeCache::global().setMaxBytes(
                server_options.cacheBytes);
        } else if (arg == "--preset") {
            std::string mode = next();
            if (mode == "serve") {
                cli->usePreset = true;
            } else if (mode == "default") {
                cli->usePreset = false;
            } else {
                std::cerr << "--preset must be serve or default\n";
                return 2;
            }
        } else if (arg == "--open") {
            load_options.openLoop = true;
        } else if (arg == "--closed") {
            load_options.openLoop = false;
        } else if (arg == "--rate") {
            load_options.rateHz = numberArg<double>(arg, next());
        } else if (arg == "--clients") {
            load_options.clients = threadCountArg(arg, next());
        } else if (arg == "--duration") {
            load_options.durationSeconds = numberArg<double>(arg, next());
        } else if (arg == "--seed") {
            load_options.seed = numberArg<uint64_t>(arg, next());
        } else if (arg == "--seed-universe") {
            load_options.seedUniverse = numberArg<uint64_t>(arg, next());
        } else if (arg == "--zipf") {
            load_options.zipfExponent = numberArg<double>(arg, next());
        } else if (arg == "--deadline-ms") {
            load_options.deadlineMs = numberArg<double>(arg, next());
        } else if (arg == "--mix") {
            load_options.mix.clear();
            for (const auto &entry : splitList(next())) {
                auto eq = entry.find('=');
                std::string name = entry.substr(0, eq);
                double weight = 1.0;
                if (eq != std::string::npos) {
                    std::string text = entry.substr(eq + 1);
                    if (!util::parseWhole(text, &weight) || weight <= 0.0) {
                        std::cerr << "--mix weight for '" << name
                                  << "' must be a positive number, "
                                     "got '"
                                  << text << "'\n";
                        return 2;
                    }
                }
                load_options.mix.emplace_back(name, weight);
            }
        } else if (arg == "--threads") {
            int threads = threadCountArg(arg, next());
            if (threads < 1) {
                std::cerr << "--threads must be positive\n";
                return 2;
            }
            util::ThreadPool::setGlobalThreads(threads);
        } else if (arg == "--faults") {
            std::string spec = next();
            std::string error = util::failpoints::configure(spec);
            if (!error.empty()) {
                std::cerr << "--faults: " << error << "\n";
                return 2;
            }
        } else if (arg == "--retries") {
            server_options.maxRetries = numberArg<int>(arg, next());
            if (server_options.maxRetries < 0) {
                std::cerr << "--retries must be >= 0\n";
                return 2;
            }
        } else if (arg == "--retry-backoff-us") {
            server_options.retryBackoffUs =
                numberArg<int64_t>(arg, next());
            if (server_options.retryBackoffUs < 0) {
                std::cerr << "--retry-backoff-us must be >= 0\n";
                return 2;
            }
        } else if (arg == "--target-sojourn-us") {
            server_options.targetSojournUs =
                numberArg<int64_t>(arg, next());
            if (server_options.targetSojournUs < 0) {
                std::cerr << "--target-sojourn-us must be >= 0\n";
                return 2;
            }
        } else if (arg == "--sojourn-grace-us") {
            server_options.sojournGraceUs =
                numberArg<int64_t>(arg, next());
            if (server_options.sojournGraceUs < 0) {
                std::cerr << "--sojourn-grace-us must be >= 0\n";
                return 2;
            }
        } else if (arg == "--no-hedging") {
            cli->router.hedging = false;
        } else if (arg == "--hedge-budget") {
            cli->router.hedgeBudget = numberArg<double>(arg, next());
            if (cli->router.hedgeBudget < 0.0 ||
                cli->router.hedgeBudget > 1.0) {
                std::cerr << "--hedge-budget must be in [0, 1]\n";
                return 2;
            }
        } else if (arg == "--hedge-min-delay-us") {
            auto us = numberArg<int64_t>(arg, next());
            if (us <= 0) {
                std::cerr << "--hedge-min-delay-us must be "
                             "positive\n";
                return 2;
            }
            cli->router.hedgeMinDelaySeconds =
                static_cast<double>(us) * 1e-6;
        } else if (arg == "--hedge-max-delay-us") {
            auto us = numberArg<int64_t>(arg, next());
            if (us <= 0) {
                std::cerr << "--hedge-max-delay-us must be "
                             "positive\n";
                return 2;
            }
            cli->router.hedgeMaxDelaySeconds =
                static_cast<double>(us) * 1e-6;
        } else if (arg == "--breaker-error-rate") {
            cli->router.breaker.errorThreshold =
                numberArg<double>(arg, next());
            if (cli->router.breaker.errorThreshold <= 0.0 ||
                cli->router.breaker.errorThreshold > 1.0) {
                std::cerr
                    << "--breaker-error-rate must be in (0, 1]\n";
                return 2;
            }
        } else if (arg == "--breaker-latency-factor") {
            cli->router.breaker.latencyFactor =
                numberArg<double>(arg, next());
            if (cli->router.breaker.latencyFactor <= 1.0) {
                std::cerr
                    << "--breaker-latency-factor must be > 1\n";
                return 2;
            }
        } else if (arg == "--retry-down") {
            cli->router.breaker.openSeconds =
                numberArg<double>(arg, next());
            if (cli->router.breaker.openSeconds <= 0.0) {
                std::cerr << "--retry-down must be positive\n";
                return 2;
            }
        } else if (arg == "--listen") {
            cli->listen = next();
        } else if (arg == "--connect") {
            cli->connect = next();
        } else if (arg == "--backends") {
            cli->backends = splitList(next());
        } else if (arg == "--json") {
            cli->jsonPath = next();
        } else if (arg.rfind("--json=", 0) == 0) {
            cli->jsonPath = arg.substr(7);
        } else if (arg == "--csv") {
            cli->csv = true;
        } else {
            std::cerr << "unknown option " << arg << "\n";
            return usage();
        }
    }
    return -1;
}

/** Workload-list validation, shared by every serving mode. */
int
validateWorkloads(const std::vector<std::string> &names)
{
    auto &registry = core::WorkloadRegistry::global();
    for (const auto &name : names) {
        if (!registry.contains(name)) {
            std::cerr << "unknown workload '" << name
                      << "'; try `nsbench list`\n";
            return 1;
        }
    }
    if (names.empty()) {
        std::cerr << "--workloads must name at least one workload\n";
        return 2;
    }
    return -1;
}

/**
 * Load-discipline validation (local and remote load generation);
 * @p workloads is the --workloads list the mix must draw from.
 */
int
validateLoadOptions(const serve::LoadgenOptions &load_options,
                    const std::vector<std::string> &workloads)
{
    for (const auto &[name, weight] : load_options.mix) {
        if (std::find(workloads.begin(), workloads.end(), name) ==
            workloads.end()) {
            std::cerr << "--mix names '" << name
                      << "', which is not in --workloads\n";
            return 2;
        }
    }
    if (load_options.durationSeconds <= 0.0) {
        std::cerr << "--duration must be positive\n";
        return 2;
    }
    if (!load_options.openLoop && load_options.clients < 1) {
        std::cerr << "--clients must be positive\n";
        return 2;
    }
    if (load_options.openLoop && load_options.rateHz <= 0.0) {
        std::cerr << "--rate must be positive\n";
        return 2;
    }
    if (load_options.openLoop && load_options.rateHz > serve::kMaxRateHz) {
        std::cerr << "--rate must be at most "
                  << util::fixedStr(serve::kMaxRateHz, 0) << "\n";
        return 2;
    }
    return -1;
}

/** Prints the armed-failpoints panel: per site, fires/evaluations
 *  plus the injected-delay tally when the spec carried ~DELAY. */
void
printFailpointsLine()
{
    if (!util::failpoints::armed())
        return;
    std::cout << "failpoints:";
    for (const auto &[site, s] : util::failpoints::stats()) {
        std::cout << " " << site << "=" << s.fires << "/"
                  << s.evaluations;
        if (s.delays > 0)
            std::cout << " (" << s.delays << " delayed, "
                      << s.delayedUs << "us injected)";
    }
    std::cout << "\n";
}

/** Prints the shared end-of-window load summary. */
void
printLoadReport(const serve::LoadgenReport &report)
{
    std::cout << "\noffered:  "
              << util::fixedStr(report.offeredRate, 1)
              << " req/s\nserved:   "
              << util::fixedStr(report.throughput(), 1)
              << " req/s\nsubmitted " << report.submitted
              << ", completed " << report.completed << ", expired "
              << report.expired << ", failed " << report.failed
              << ", rejected " << report.rejected << " over "
              << util::humanSeconds(report.wallSeconds) << "\n";
}

/**
 * `serve --listen`: exposes the server over TCP for the configured
 * window (--duration; the loadgen default applies) and prints the
 * transport + serving metrics when the window closes.
 */
int
runListenServe(ServeCli &cli)
{
    net::FrameServerOptions bind = parseListenSpec(cli.listen);
    if (cli.load.durationSeconds <= 0.0) {
        std::cerr << "--duration must be positive\n";
        return 2;
    }

    serve::Server server(std::move(cli.server));
    net::TcpServer tcp(server, bind);
    if (!cli.csv)
        std::cout << "listening on " << bind.host << ":"
                  << tcp.port() << " for "
                  << util::fixedStr(cli.load.durationSeconds, 1)
                  << "s\n"
                  << std::flush;

    std::this_thread::sleep_for(std::chrono::duration<double>(
        cli.load.durationSeconds));

    tcp.shutdown();
    server.shutdown();

    printTable(server.metrics().table(), cli.csv);
    if (server.metrics().hasResilienceEvents()) {
        if (!cli.csv)
            std::cout << "\n";
        printTable(server.metrics().resilienceTable(), cli.csv);
    }
    if (!cli.csv)
        std::cout << "\n";
    printTable(server.metrics().netTable(), cli.csv);
    if (!cli.csv)
        printFailpointsLine();

    bench::writeBenchJson(cli.jsonPath, tcp.json());
    return 0;
}

/**
 * `serve|loadgen --connect`: drives a remote server with the stock
 * load generator over the wire protocol. Exits 1 when nothing
 * completed, so scripted smoke tests gate on the exit code.
 */
int
runRemoteLoadgen(ServeCli &cli)
{
    if (!cli.workloadsGiven) {
        std::cerr << "--connect needs an explicit --workloads list "
                     "(a remote client cannot query the server's "
                     "registry)\n";
        return 2;
    }
    int rc = validateWorkloads(cli.server.workloads);
    if (rc >= 0)
        return rc;
    rc = validateLoadOptions(cli.load, cli.server.workloads);
    if (rc >= 0)
        return rc;

    net::ClientOptions remote = parseConnectSpec(cli.connect);
    remote.modelSeed = 0; // Accept the server's model snapshot.
    net::Client client(remote);
    net::RemoteTarget target(client, cli.server.workloads);

    if (!cli.csv)
        std::cout << "driving " << remote.host << ":" << remote.port
                  << " ("
                  << (cli.load.openLoop ? "open loop" : "closed loop")
                  << ") for "
                  << util::fixedStr(cli.load.durationSeconds, 1)
                  << "s\n"
                  << std::flush;

    serve::LoadgenReport report = serve::runLoadgen(target, cli.load);
    client.close();

    printLoadReport(report);
    net::ClientStats stats = client.stats();
    if (!cli.csv) {
        std::cout << "transport: " << stats.connects
                  << " connect(s), " << stats.connectFailures
                  << " connect failure(s), " << stats.sent
                  << " sent, " << stats.received << " received, "
                  << stats.disconnects << " disconnect(s), "
                  << stats.orphaned << " orphaned, "
                  << stats.cancelsSent << " cancel(s), "
                  << stats.callTimeouts << " call timeout(s)\n";
        printFailpointsLine();
    }

    bench::writeBenchJson(cli.jsonPath,
                          net::remoteLoadgenJson(report, stats));
    return report.completed > 0 ? 0 : 1;
}

int
cmdServe(int argc, char **argv, bool open_loop)
{
    ServeCli cli;
    cli.load.openLoop = open_loop;
    int rc = parseServeArgs(argc, argv, &cli);
    if (rc >= 0)
        return rc;
    if (!cli.listen.empty() && !cli.connect.empty()) {
        std::cerr << "--listen and --connect are exclusive\n";
        return 2;
    }
    if (!cli.backends.empty()) {
        std::cerr << "--backends only applies to `nsbench route`\n";
        return 2;
    }
    if (cli.usePreset)
        cli.server.factory = serve::serveFactory;

    if (!cli.connect.empty())
        return runRemoteLoadgen(cli);

    rc = validateWorkloads(cli.server.workloads);
    if (rc >= 0)
        return rc;
    if (cli.server.workers < 1) {
        std::cerr << "--workers must be positive\n";
        return 2;
    }
    if (!cli.listen.empty())
        return runListenServe(cli);
    rc = validateLoadOptions(cli.load, cli.server.workloads);
    if (rc >= 0)
        return rc;

    serve::ServerOptions &server_options = cli.server;
    serve::LoadgenOptions &load_options = cli.load;
    bool csv = cli.csv;

    if (!csv) {
        std::cout << "serving:  ";
        for (size_t i = 0; i < server_options.workloads.size(); i++)
            std::cout << (i ? "," : "")
                      << server_options.workloads[i];
        std::cout << "\nworkers:  " << server_options.workers
                  << "  queue " << server_options.queueCapacity
                  << "  cache "
                  << (server_options.resultCache ? "on" : "off")
                  << "\ndriving:  "
                  << (load_options.openLoop ? "open loop" : "closed loop");
        if (load_options.openLoop)
            std::cout << " at " << load_options.rateHz << " req/s";
        else
            std::cout << " with " << load_options.clients
                      << " client(s)";
        std::cout << " for "
                  << util::fixedStr(load_options.durationSeconds, 1)
                  << "s\n\n"
                  << std::flush;
    }

    serve::Server server(std::move(server_options));
    serve::LoadgenReport report =
        serve::runLoadgen(server, load_options);
    server.shutdown();

    printTable(server.metrics().table(), csv);
    if (server.metrics().hasResilienceEvents()) {
        if (!csv)
            std::cout << "\n";
        printTable(server.metrics().resilienceTable(), csv);
    }
    bench::writeBenchJson(
        cli.jsonPath,
        serve::loadgenJson(load_options.openLoop ? "loadgen" : "serve",
                           report, server.metrics()));
    if (!csv) {
        printLoadReport(report);
        printFailpointsLine();
        if (const cache::ResultCache *rc = server.resultCache()) {
            cache::ResultCacheStats stats = rc->stats();
            std::cout << "result cache: " << stats.hits
                      << " hit(s), " << stats.misses << " miss(es), "
                      << stats.evictions << " eviction(s), "
                      << util::humanBytes(stats.bytes) << " in "
                      << stats.entries << " entr"
                      << (stats.entries == 1 ? "y" : "ies") << "\n";
        }
        if (cache::enabled())
            printPrecomputeLine();
    }
    return 0;
}

/**
 * `nsbench route --listen [HOST:]PORT --backends H:P,...`: runs the
 * sharded consistent-hashing router in front of N `serve --listen`
 * processes for the configured window.
 */
int
cmdRoute(int argc, char **argv)
{
    ServeCli cli;
    int rc = parseServeArgs(argc, argv, &cli);
    if (rc >= 0)
        return rc;
    if (cli.listen.empty() || cli.backends.empty()) {
        std::cerr << "route needs --listen [HOST:]PORT and "
                     "--backends HOST:PORT,...\n";
        return 2;
    }
    if (cli.load.durationSeconds <= 0.0) {
        std::cerr << "--duration must be positive\n";
        return 2;
    }
    if (cli.router.hedgeMinDelaySeconds >
        cli.router.hedgeMaxDelaySeconds) {
        std::cerr << "--hedge-min-delay-us must not exceed "
                     "--hedge-max-delay-us\n";
        return 2;
    }

    net::RouterOptions options = cli.router;
    options.listen = parseListenSpec(cli.listen);
    for (const std::string &backend : cli.backends)
        endpointArg("--backends", backend);
    options.backends = cli.backends;
    net::Router router(options);
    if (!cli.csv) {
        std::cout << "routing " << options.listen.host << ":"
                  << router.port() << " -> ";
        for (size_t i = 0; i < cli.backends.size(); i++)
            std::cout << (i ? "," : "") << cli.backends[i];
        std::cout << " for "
                  << util::fixedStr(cli.load.durationSeconds, 1)
                  << "s\n"
                  << std::flush;
    }

    std::this_thread::sleep_for(std::chrono::duration<double>(
        cli.load.durationSeconds));
    router.shutdown();

    if (router.metrics().total().offered() > 0) {
        printTable(router.metrics().table(), cli.csv);
        if (!cli.csv)
            std::cout << "\n";
    }
    printTable(router.backendTable(), cli.csv);
    if (!cli.csv)
        std::cout << "\n";
    printTable(router.metrics().netTable(), cli.csv);

    net::HedgeStats hedges = router.hedgeStats();
    if (!cli.csv) {
        std::cout << "hedging:  "
                  << (options.hedging ? "on" : "off") << " — "
                  << hedges.hedgesSent << " sent, "
                  << hedges.hedgesWon << " won, "
                  << hedges.hedgesDenied << " budget-denied, "
                  << hedges.cancelsSent << " cancel(s)\n";
        printFailpointsLine();
    }

    bench::writeBenchJson(cli.jsonPath, router.json());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    workloads::registerAllWorkloads();
    // Arm failpoints from the environment before any subcommand runs;
    // --faults (when given) reconfigures over this.
    util::failpoints::configureFromEnv();
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    if (cmd == "list")
        return cmdList();
    if (cmd == "devices")
        return cmdDevices();
    if (cmd == "run")
        return cmdRun(argc - 2, argv + 2);
    if (cmd == "serve")
        return cmdServe(argc - 2, argv + 2, /*open_loop=*/false);
    if (cmd == "loadgen")
        return cmdServe(argc - 2, argv + 2, /*open_loop=*/true);
    if (cmd == "route")
        return cmdRoute(argc - 2, argv + 2);
    return usage();
}
