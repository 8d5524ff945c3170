/**
 * @file
 * Recommendation 4: compute-in-memory for the memory-bound symbolic
 * phase.
 *
 * The paper recommends emerging-memory / compute-in-memory (CIM)
 * techniques for the vector-symbolic operations that Fig. 3c shows
 * to be bandwidth-bound. This bench re-projects NVSA's measured op
 * stream onto an RTX-class device augmented with a CIM array that
 * executes the codebook-resident operators (PMF<->VSA transforms,
 * cleanup scans, bindings) in place: their DRAM streaming term
 * disappears and only the result writeback moves. The per-op
 * analytical model mirrors associative-memory CIM proposals
 * (VSA similarity search inside the array).
 */

#include <algorithm>
#include <iostream>
#include <set>
#include <string>

#include "common.hh"
#include "sim/device.hh"
#include "sim/projection.hh"
#include "util/format.hh"
#include "util/table.hh"
#include "workloads/nvsa.hh"

namespace
{

using namespace nsbench;

/** Operators a VSA-CIM array absorbs (codebook/vector resident). */
const std::set<std::string> cimOps = {
    "pmf_to_vsa",   "vsa_to_pmf",      "codebook_cleanup",
    "vsa_bind",     "vsa_unbind",      "vsa_bundle",
    "vsa_majority", "circular_conv",   "circular_corr",
    "vsa_cosine",
};

/**
 * Projects one profiled run with and without the CIM array.
 * CIM-eligible symbolic ops lose their bandwidth term (operands stay
 * in the array) and run at a modest in-array compute efficiency.
 */
std::pair<double, double>
projectWithCim(const core::Profiler &prof, const sim::DeviceSpec &dev)
{
    double baseline = 0.0;
    double with_cim = 0.0;
    for (const auto &op : prof.opsByTime()) {
        double normal = sim::projectOp(dev, op.category, op.stats);
        baseline += normal;
        bool eligible = op.phase == core::Phase::Symbolic &&
                        cimOps.count(op.name) > 0;
        if (!eligible) {
            with_cim += normal;
            continue;
        }
        // In-array execution: compute at a fixed 20% array
        // efficiency of device peak, result writeback only, and a
        // tenth of the dispatch overhead (commands, not kernels).
        double compute_s =
            op.stats.flops / (dev.peakGflops * 1e9 * 0.20);
        double writeback_s =
            op.stats.bytesWritten / (dev.memBandwidthGBs * 1e9);
        double overhead_s =
            static_cast<double>(op.stats.invocations) *
            dev.launchOverheadUs * 1e-7;
        with_cim +=
            std::max(compute_s, writeback_s) + overhead_s;
    }
    return {baseline, with_cim};
}

} // namespace

int
main()
{
    bench::printHeader(
        "Compute-in-memory projection for VSA symbolic operators",
        "Recommendation 4 / Takeaway 4");

    util::Table table({"workload", "device", "baseline", "with-CIM",
                       "speedup"});
    for (const char *name : {"NVSA", "VSAIT"}) {
        auto run = bench::profileWorkload(name);
        for (const auto *dev :
             {&sim::rtx2080ti(), &sim::jetsonTx2()}) {
            auto [base, cim] = projectWithCim(run.profile, *dev);
            table.addRow({name, dev->name,
                          util::humanSeconds(base),
                          util::humanSeconds(cim),
                          util::fixedStr(base / cim, 2) + "x"});
        }
    }
    table.print(std::cout);

    std::cout
        << "\nAbsorbing the codebook-resident operators into a CIM "
           "array removes the DRAM streaming that bounds the "
           "symbolic phase (Fig. 3c), which is exactly where the "
           "paper's Recommendation 4 points. The residual time is "
           "the neural phase plus the non-CIM symbolic control "
           "flow.\n";
    return 0;
}
