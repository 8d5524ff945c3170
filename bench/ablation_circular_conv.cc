/**
 * @file
 * Ablation: direct O(d^2) vs FFT O(d log d) circular convolution.
 *
 * NVSA's rule algebra leans on circular-convolution binding, which
 * the paper identifies as a memory-streaming bottleneck
 * (Recommendation 2/4). The direct form is the one NVSA runs: the
 * order-preserving kernel, one output per vector lane, whose results
 * are bit-identical on both backends. The FFT form rounds differently,
 * so the gap this bench measures is the algorithmic headroom a
 * dedicated implementation has once it may change the bits.
 */

#include <benchmark/benchmark.h>

#include "core/profiler.hh"
#include "tensor/tensor.hh"
#include "util/rng.hh"
#include "vsa/ops.hh"

namespace
{

using namespace nsbench;

void
BM_DirectCircularConv(benchmark::State &state)
{
    core::globalProfiler().setEnabled(false);
    util::Rng rng(1);
    auto dim = static_cast<int64_t>(state.range(0));
    auto a = vsa::randomHypervector(dim, rng);
    auto b = vsa::randomHypervector(dim, rng);
    for (auto _ : state) {
        auto c = vsa::circularConvolve(a, b);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetComplexityN(dim);
    core::globalProfiler().setEnabled(true);
}

void
BM_FftCircularConv(benchmark::State &state)
{
    core::globalProfiler().setEnabled(false);
    util::Rng rng(1);
    auto dim = static_cast<int64_t>(state.range(0));
    auto a = vsa::randomHypervector(dim, rng);
    auto b = vsa::randomHypervector(dim, rng);
    for (auto _ : state) {
        auto c = vsa::fftCircularConvolve(a, b);
        benchmark::DoNotOptimize(c.data().data());
    }
    state.SetComplexityN(dim);
    core::globalProfiler().setEnabled(true);
}

void
BM_HadamardBind(benchmark::State &state)
{
    core::globalProfiler().setEnabled(false);
    util::Rng rng(1);
    auto dim = static_cast<int64_t>(state.range(0));
    auto a = vsa::randomHypervector(dim, rng);
    auto b = vsa::randomHypervector(dim, rng);
    for (auto _ : state) {
        auto c = vsa::bind(a, b);
        benchmark::DoNotOptimize(c.data().data());
    }
    core::globalProfiler().setEnabled(true);
}

BENCHMARK(BM_DirectCircularConv)
    ->RangeMultiplier(2)
    ->Range(256, 4096)
    ->Complexity();
BENCHMARK(BM_FftCircularConv)
    ->RangeMultiplier(2)
    ->Range(256, 4096)
    ->Complexity();
BENCHMARK(BM_HadamardBind)->RangeMultiplier(2)->Range(256, 4096);

} // namespace

BENCHMARK_MAIN();
