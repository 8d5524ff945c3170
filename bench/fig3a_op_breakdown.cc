/**
 * @file
 * Fig. 3a: operator-category runtime breakdown per workload, split
 * into the neural and symbolic halves.
 *
 * Reproduces the paper's six-category partition (convolution, MatMul,
 * vector/element-wise, data transformation, data movement, others):
 * neural halves should be dominated by MatMul/convolution, symbolic
 * halves by vector/element-wise and "others" (logic) operators.
 * Each share is the median of bench::kMedianRuns runs at pool
 * width 1.
 */

#include <iostream>

#include "common.hh"
#include "core/report.hh"
#include "core/taxonomy.hh"
#include "util/format.hh"
#include "util/table.hh"

int
main()
{
    using namespace nsbench;

    bench::printHeader(
        "Compute-operator runtime breakdown (six categories)",
        "Fig. 3a");

    util::Table table({"workload", "phase", "Conv%", "MatMul%",
                       "VecElem%", "DataTrans%", "DataMove%",
                       "Others%"});

    for (const auto &name : bench::paperOrder()) {
        auto runs = bench::profileRuns(name);
        for (core::Phase phase :
             {core::Phase::Neural, core::Phase::Symbolic}) {
            std::vector<std::string> row = {
                name, std::string(core::phaseName(phase))};
            for (core::OpCategory category :
                 core::allOpCategories) {
                double share = bench::medianOf(
                    runs, [&](const bench::ProfiledRun &run) {
                        double phase_total =
                            run.profile.phaseTotals(phase).seconds;
                        double t = run.profile
                                       .categoryTotals(phase, category)
                                       .seconds;
                        return phase_total > 0 ? t / phase_total
                                               : 0.0;
                    });
                row.push_back(util::fixedStr(100.0 * share, 1));
            }
            table.addRow(std::move(row));
        }
    }
    table.print(std::cout);
    std::cout << "\nEach share is the median of "
              << bench::kMedianRuns
              << " profiled runs at pool width 1.\n";

    std::cout
        << "\nTakeaway 3 check: neural rows concentrate in "
           "Conv/MatMul (plus LNN's characteristic data movement); "
           "symbolic rows concentrate in vector/element-wise tensor "
           "ops and 'Others' (logic/rule) operators.\n";
    return 0;
}
