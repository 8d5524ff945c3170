/**
 * @file
 * Sparsity measurement helpers (Fig. 5 of the paper).
 */

#ifndef NSBENCH_CORE_SPARSITY_HH
#define NSBENCH_CORE_SPARSITY_HH

#include <cmath>
#include <cstdint>
#include <span>
#include <string_view>

#include "core/profiler.hh"

namespace nsbench::core
{

/** Counts elements whose magnitude is at most @p eps. */
template <typename T>
uint64_t
countZeros(std::span<const T> values, T eps = T(0))
{
    uint64_t zeros = 0;
    for (const T &v : values) {
        if (std::abs(v) <= eps)
            zeros++;
    }
    return zeros;
}

/**
 * Measures a span's sparsity and records it on the profiler under the
 * given stage label.
 */
template <typename T>
void
recordSpanSparsity(std::string_view stage, std::span<const T> values,
                   T eps = T(0), Profiler &profiler = globalProfiler())
{
    profiler.recordSparsity(stage, countZeros(values, eps),
                            values.size());
}

} // namespace nsbench::core

#endif // NSBENCH_CORE_SPARSITY_HH
