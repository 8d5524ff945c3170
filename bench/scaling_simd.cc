/**
 * @file
 * Scalar-vs-AVX2 speedup curves for the vectorized kernel backend.
 *
 * Runs each hot kernel single-threaded under the scalar backend and
 * again under the AVX2 backend, reporting wall time and speedup while
 * checking that the two backends agree (<= 1e-5 relative for float
 * reductions and fused kernels; exactly equal checksums for the
 * order-preserving circular_conv, FFT (fft_circular_conv,
 * vsa_conv_power) and conv2d kernels and the tanh, exp and sigmoid
 * twins). A
 * third column times the AVX2 backend at the full default pool width,
 * showing how vectorization composes with the thread runtime. The
 * final BENCH_JSON line is machine-readable so the perf trajectory of
 * the backend can be tracked run over run.
 *
 * Acceptance floors on AVX2 hardware: >= 2x single-thread MatMul and
 * >= 4x binary-VSA similarity versus the scalar backend. On machines
 * without AVX2 the bench degrades to a scalar-vs-scalar sanity run.
 *
 * Not a paper figure: this tracks the reproduction's own runtime,
 * motivated by the CPU-bottleneck observations of Sec. IV.
 */

#include <cmath>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hh"
#include "core/profiler.hh"
#include "tensor/ops.hh"
#include "util/format.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "util/table.hh"
#include "util/threadpool.hh"
#include "util/timer.hh"
#include "vsa/binary.hh"
#include "vsa/codebook.hh"
#include "vsa/ops.hh"

namespace
{

using namespace nsbench;
using tensor::Tensor;
namespace simd = nsbench::util::simd;

constexpr int kRepeats = 5;

struct Kernel
{
    std::string name;
    std::function<double()> run;
    /** Order-preserving kernel: checksums must match exactly. */
    bool exact = false;
};

/** Serial double sum: a checksum that no backend can reorder. */
double
orderedSum(const Tensor &t)
{
    double sum = 0.0;
    for (float v : t.data())
        sum += v;
    return sum;
}

double
timeKernel(const Kernel &kernel, double *checksum)
{
    double best = 0.0;
    for (int r = 0; r < kRepeats; r++) {
        util::WallTimer timer;
        double sum = kernel.run();
        double elapsed = timer.elapsed();
        if (r == 0 || elapsed < best)
            best = elapsed;
        *checksum = sum;
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::printHeader("SIMD backend scaling",
                       "runtime extra (Sec. IV CPU bottlenecks)");

    bool has_avx2 = simd::avx2Supported();
    std::cout << "vector backend: "
              << (has_avx2 ? "avx2 (runtime-dispatched)"
                           : "scalar only (no AVX2 on this host)")
              << "\n\n";

    util::Rng rng(7);

    Tensor mm_a = Tensor::randn({512, 512}, rng);
    Tensor mm_b = Tensor::randn({512, 512}, rng);
    Tensor lin_x = Tensor::randn({256, 1024}, rng);
    Tensor lin_w = Tensor::randn({512, 1024}, rng);
    Tensor lin_bias = Tensor::randn({512}, rng);
    Tensor ew_a = Tensor::randn({1 << 22}, rng);
    Tensor ew_b = Tensor::randn({1 << 22}, rng);
    vsa::Codebook book(512, 8192, rng);
    Tensor query = vsa::randomHypervector(8192, rng);
    Tensor cos_a = Tensor::randn({1 << 22}, rng);
    Tensor cos_b = Tensor::randn({1 << 22}, rng);
    vsa::BinaryCodebook bin_book(1024, 16384, rng);
    vsa::BinaryVector bin_query =
        vsa::BinaryVector::random(16384, rng);
    Tensor cc_a = Tensor::randn({2048}, rng);
    Tensor cc_b = Tensor::randn({2048}, rng);
    Tensor unitary = vsa::unitaryVector(2048, rng);
    Tensor conv_x = Tensor::randn({1, 8, 48, 48}, rng);
    Tensor conv_w = Tensor::randn({16, 8, 3, 3}, rng);
    Tensor conv_bias = Tensor::randn({16}, rng);
    // The workload layers: PrAE's second (a batch of 16 panels),
    // VSAIT's widest, and ZeroC's largest energy map (unpadded).
    Tensor prae_x = Tensor::randn({16, 8, 24, 24}, rng);
    Tensor prae_w = Tensor::randn({16, 8, 3, 3}, rng);
    Tensor vsait_x = Tensor::randn({1, 16, 32, 32}, rng);
    Tensor vsait_w = Tensor::randn({16, 16, 3, 3}, rng);
    Tensor zeroc_x = Tensor::randn({1, 1, 32, 32}, rng);
    Tensor zeroc_w = Tensor::randn({1, 1, 10, 10}, rng);
    Tensor tr_x = tensor::mulScalar(Tensor::randn({4096}, rng), 2.0f);

    std::vector<Kernel> kernels = {
        {"matmul_512",
         [&] { return tensor::sumAll(matmul(mm_a, mm_b)); }},
        {"linear_256x1024",
         [&] {
             return tensor::sumAll(linear(lin_x, lin_w, lin_bias));
         }},
        {"elementwise_4M",
         [&] {
             return tensor::sumAll(
                 tensor::mul(tensor::add(ew_a, ew_b), ew_a));
         }},
        {"sum_4M", [&] { return tensor::sumAll(ew_a); }},
        {"cosine_4M",
         [&] {
             return static_cast<double>(
                 vsa::cosineSimilarity(cos_a, cos_b));
         }},
        {"codebook_cleanup",
         [&] {
             auto r = book.cleanup(query);
             return static_cast<double>(r.index) + r.similarity;
         }},
        {"binary_cleanup_16k",
         [&] {
             auto r = bin_book.cleanup(bin_query);
             return static_cast<double>(r.index) + r.similarity;
         }},
        {"circular_conv_2048",
         [&] { return orderedSum(vsa::circularConvolve(cc_a, cc_b)); },
         true},
        {"fft_circular_conv_2048",
         [&] {
             return orderedSum(vsa::fftCircularConvolve(cc_a, cc_b));
         },
         true},
        {"vsa_conv_power_2048",
         [&] { return orderedSum(vsa::convPower(unitary, 7)); }, true},
        {"conv2d_48x48_8to16",
         [&] {
             return orderedSum(
                 tensor::conv2d(conv_x, conv_w, conv_bias, 1, 1));
         },
         true},
        {"conv2d_prae_24x24_8to16_n16",
         [&] {
             return orderedSum(
                 tensor::conv2d(prae_x, prae_w, conv_bias, 1, 1));
         },
         true},
        {"conv2d_vsait_32x32_16to16",
         [&] {
             return orderedSum(
                 tensor::conv2d(vsait_x, vsait_w, conv_bias, 1, 1));
         },
         true},
        {"conv2d_zeroc_32x32_k10",
         [&] {
             return orderedSum(
                 tensor::conv2d(zeroc_x, zeroc_w, Tensor(), 1, 0));
         },
         true},
        {"tanh_4096", [&] { return orderedSum(tensor::tanhOp(tr_x)); },
         true},
        {"exp_4096", [&] { return orderedSum(tensor::expOp(tr_x)); },
         true},
        {"sigmoid_4096",
         [&] { return orderedSum(tensor::sigmoid(tr_x)); }, true},
    };

    core::globalProfiler().setEnabled(false);

    util::Table table({"kernel", "scalar", "avx2", "speedup",
                       "avx2+threads", "match"});
    std::ostringstream json;
    json << "{\"bench\":\"scaling_simd\",\"avx2\":"
         << (has_avx2 ? "true" : "false") << ",\"hw_threads\":"
         << util::ThreadPool::defaultThreads() << ",\"kernels\":[";

    bool all_match = true;
    for (size_t k = 0; k < kernels.size(); k++) {
        const Kernel &kernel = kernels[k];

        util::ThreadPool::setGlobalThreads(1);
        simd::setBackend(simd::Backend::Scalar);
        double scalar_checksum = 0.0;
        double scalar_s = timeKernel(kernel, &scalar_checksum);

        simd::setBackend(has_avx2 ? simd::Backend::Avx2
                                  : simd::Backend::Scalar);
        double simd_checksum = 0.0;
        double simd_s = timeKernel(kernel, &simd_checksum);

        util::ThreadPool::setGlobalThreads(0); // default width
        double wide_checksum = 0.0;
        double wide_s = timeKernel(kernel, &wide_checksum);

        double denom = std::max(1.0, std::abs(scalar_checksum));
        bool match =
            kernel.exact
                ? simd_checksum == scalar_checksum &&
                      wide_checksum == scalar_checksum
                : std::abs(simd_checksum - scalar_checksum) / denom <=
                          1e-5 &&
                      std::abs(wide_checksum - scalar_checksum) /
                              denom <=
                          1e-5;
        all_match = all_match && match;

        double speedup = simd_s > 0.0 ? scalar_s / simd_s : 0.0;
        table.addRow({kernel.name, util::humanSeconds(scalar_s),
                      util::humanSeconds(simd_s),
                      util::fixedStr(speedup, 2) + "x",
                      util::humanSeconds(wide_s),
                      match ? "yes" : "NO"});

        json << (k ? "," : "") << "{\"name\":\"" << kernel.name
             << "\",\"scalar_seconds\":" << scalar_s
             << ",\"avx2_seconds\":" << simd_s
             << ",\"avx2_threads_seconds\":" << wide_s
             << ",\"speedup\":" << speedup
             << ",\"match\":" << (match ? "true" : "false") << "}";
    }
    json << "]}";

    simd::resetBackend();
    util::ThreadPool::setGlobalThreads(0);
    core::globalProfiler().setEnabled(true);

    table.print(std::cout);
    std::cout << "\nFloors on AVX2 hardware: matmul_512 >= 2x and "
                 "binary_cleanup_16k >= 4x over the scalar backend "
                 "single-threaded (the binary path additionally gains "
                 "hardware POPCNT, which the baseline-ISA scalar "
                 "build lacks).\n"
              << (all_match ? ""
                            : "WARNING: backend mismatch detected!\n")
              << "\nBENCH_JSON " << json.str() << "\n";
    bench::writeBenchJson(argc, argv, json.str());
    return all_match ? 0 : 1;
}
