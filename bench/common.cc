#include "common.hh"

#include <fstream>
#include <iostream>
#include <sstream>

#include "cache/config.hh"
#include "util/logging.hh"
#include "util/simd.hh"
#include "util/threadpool.hh"
#include "util/timer.hh"
#include "workloads/register.hh"

#ifndef NSBENCH_GIT_SHA
#define NSBENCH_GIT_SHA "unknown"
#endif
#ifndef NSBENCH_BUILD_TYPE
#define NSBENCH_BUILD_TYPE "unknown"
#endif

namespace nsbench::bench
{

ProfiledRun
profileWorkload(const std::string &name, uint64_t seed)
{
    workloads::registerAllWorkloads();
    auto workload = core::WorkloadRegistry::global().create(name);
    return profileWorkload(*workload, seed);
}

ProfiledRun
profileWorkload(core::Workload &workload, uint64_t seed)
{
    workload.setUp(seed);

    auto &prof = core::globalProfiler();
    prof.reset();
    util::WallTimer timer;
    double score = workload.run();
    double wall = timer.elapsed();

    ProfiledRun run;
    run.name = workload.name();
    run.score = score;
    run.wallSeconds = wall;
    run.storageBytes = workload.storageBytes();
    run.profile = prof;
    prof.reset();
    return run;
}

std::vector<ProfiledRun>
profileRuns(const std::string &name)
{
    // Pool width 1, as the perf ledger's `models` workload runs: at
    // the default width a shared host moves one model's host split
    // by ten points and more from pass to pass.
    util::ThreadPool::SerialScope serial;
    std::vector<ProfiledRun> runs;
    for (int i = 0; i < kMedianRuns; i++)
        runs.push_back(profileWorkload(name));
    return runs;
}

const std::vector<std::string> &
paperOrder()
{
    static const std::vector<std::string> order = {
        "LNN", "LTN", "NVSA", "NLM", "VSAIT", "ZeroC", "PrAE"};
    return order;
}

void
printHeader(const std::string &title, const std::string &paper_ref)
{
    std::cout << "\n=== " << title << " ===\n"
              << "reproduces: " << paper_ref << "\n\n";
}

std::string
runMetadataJson()
{
    std::ostringstream meta;
    meta << "{\"git_sha\":\"" << NSBENCH_GIT_SHA
         << "\",\"build_type\":\"" << NSBENCH_BUILD_TYPE
         << "\",\"threads\":" << util::ThreadPool::globalThreads()
         << ",\"simd\":\"" << util::simd::activeBackendName()
         << "\",\"cache\":" << (cache::enabled() ? "true" : "false")
         << "}";
    return meta.str();
}

void
writeBenchJson(int argc, char **argv, const std::string &json)
{
    std::string path;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            path = argv[i + 1];
            break;
        }
        if (arg.rfind("--json=", 0) == 0) {
            path = arg.substr(7);
            break;
        }
    }
    writeBenchJson(path, json);
}

void
writeBenchJson(const std::string &path, const std::string &json)
{
    if (path.empty())
        return;
    // Inject provenance as the payload's first field; a non-object
    // payload (none today) is written untouched.
    std::string payload = json;
    if (payload.size() >= 2 && payload.front() == '{') {
        std::string rest = payload.substr(1);
        payload = "{\"meta\":" + runMetadataJson() +
                  (rest == "}" ? "" : ",") + rest;
    }
    std::ofstream out(path);
    util::panicIf(!out, "writeBenchJson: cannot open " + path);
    out << payload << "\n";
    util::panicIf(!out.good(),
                  "writeBenchJson: write failed for " + path);
}

} // namespace nsbench::bench
