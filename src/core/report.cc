#include "core/report.hh"

#include "util/format.hh"

namespace nsbench::core
{

using util::fixedStr;
using util::humanBytes;
using util::humanCount;
using util::humanSeconds;
using util::percentStr;
using util::Table;

PhaseSplit
phaseSplit(const Profiler &profiler)
{
    PhaseSplit split;
    split.neuralSeconds = profiler.phaseTotals(Phase::Neural).seconds;
    split.symbolicSeconds =
        profiler.phaseTotals(Phase::Symbolic).seconds;
    split.untaggedSeconds =
        profiler.phaseTotals(Phase::Untagged).seconds;
    return split;
}

Table
phaseBreakdownTable(const Profiler &profiler)
{
    Table table({"phase", "time", "share", "invocations", "flops",
                 "bytes"});
    double total = profiler.totals().seconds;
    for (Phase phase :
         {Phase::Neural, Phase::Symbolic, Phase::Untagged}) {
        OpStats s = profiler.phaseTotals(phase);
        if (s.invocations == 0)
            continue;
        table.addRow({std::string(phaseName(phase)),
                      humanSeconds(s.seconds),
                      percentStr(total > 0 ? s.seconds / total : 0),
                      std::to_string(s.invocations),
                      humanCount(s.flops, "FLOP"),
                      humanBytes(static_cast<uint64_t>(s.bytes()))});
    }
    return table;
}

Table
categoryBreakdownTable(const Profiler &profiler, Phase phase)
{
    Table table({"category", "time", "share", "invocations",
                 "op-intensity"});
    double phase_total = profiler.phaseTotals(phase).seconds;
    for (OpCategory category : allOpCategories) {
        OpStats s = profiler.categoryTotals(phase, category);
        if (s.invocations == 0)
            continue;
        table.addRow(
            {std::string(opCategoryName(category)),
             humanSeconds(s.seconds),
             percentStr(phase_total > 0 ? s.seconds / phase_total : 0),
             std::to_string(s.invocations),
             fixedStr(s.opIntensity(), 3)});
    }
    return table;
}

Table
topOpsTable(const Profiler &profiler, size_t n)
{
    Table table({"op", "phase", "category", "time", "invocations",
                 "flops", "bytes"});
    auto ops = profiler.opsByTime();
    for (size_t i = 0; i < ops.size() && i < n; i++) {
        const auto &op = ops[i];
        table.addRow(
            {op.name, std::string(phaseName(op.phase)),
             std::string(opCategoryName(op.category)),
             humanSeconds(op.stats.seconds),
             std::to_string(op.stats.invocations),
             humanCount(op.stats.flops, "FLOP"),
             humanBytes(static_cast<uint64_t>(op.stats.bytes()))});
    }
    return table;
}

Table
memoryTable(const Profiler &profiler)
{
    Table table({"phase", "peak-live", "allocated", "allocs",
                 "cached", "cached-bytes"});
    for (Phase phase :
         {Phase::Neural, Phase::Symbolic, Phase::Untagged}) {
        uint64_t peak = profiler.peakBytesIn(phase);
        uint64_t alloc = profiler.allocatedBytesIn(phase);
        MemChurn churn = profiler.memChurnIn(phase);
        if (peak == 0 && alloc == 0 && churn.allocs == 0 &&
            churn.cachedAllocs == 0)
            continue;
        table.addRow({std::string(phaseName(phase)), humanBytes(peak),
                      humanBytes(alloc),
                      std::to_string(churn.allocs),
                      std::to_string(churn.cachedAllocs),
                      humanBytes(churn.cachedBytes)});
    }
    return table;
}

Table
sparsityTable(const Profiler &profiler)
{
    Table table({"stage", "phase", "elements", "zeros", "sparsity"});
    for (const auto &rec : profiler.sparsityRecords()) {
        table.addRow({rec.stage, std::string(phaseName(rec.phase)),
                      std::to_string(rec.total),
                      std::to_string(rec.zeros),
                      percentStr(rec.ratio(), 2)});
    }
    return table;
}

Table
regionTable(const Profiler &profiler)
{
    Table table({"region", "time", "share", "invocations"});
    double total = profiler.totals().seconds;
    for (const auto &region : profiler.regions()) {
        OpStats s = profiler.regionTotals(region);
        if (s.invocations == 0)
            continue;
        table.addRow({region, humanSeconds(s.seconds),
                      percentStr(total > 0 ? s.seconds / total : 0),
                      std::to_string(s.invocations)});
    }
    return table;
}

} // namespace nsbench::core
