/**
 * @file
 * The transcendental twins on every float input.
 *
 * For each of simd::tanh, simd::exp and simd::sigmoid, all 2^32 bit
 * patterns run through the scalar twin and, where the CPU has it, the
 * AVX2 twin, and three things are checked:
 *
 *  - the twins agree byte for byte;
 *  - a 64-bit digest of the scalar twin's outputs in input order
 *    equals the constant below, which pins the bits on every host;
 *  - where the host's libm is the reference (glibc 2.36 with its FMA
 *    expf, transcendental_reference.hh), both twins equal the libm
 *    expression. Elsewhere that part is skipped with the reason.
 *
 * About 70 s on 4 threads, so the binary carries its own label
 * (`exhaustive`) outside tier1 and is not built under the sanitizers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "util/simd.hh"
#include "util/threadpool.hh"

#include "transcendental_reference.hh"

namespace
{

using namespace nsbench;
namespace simd = nsbench::util::simd;

/// Inputs per round: every round runs each backend once over them.
constexpr int64_t kRound = int64_t{1} << 20;
/// Inputs per digest block, the unit of the parallel sweeps.
constexpr int64_t kBlock = int64_t{1} << 14;
constexpr int64_t kBlocksPerRound = kRound / kBlock;
constexpr uint64_t kInputs = uint64_t{1} << 32;

/// FNV-1a over 32- or 64-bit words.
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

uint32_t
toBits(float x)
{
    uint32_t w;
    std::memcpy(&w, &x, sizeof(w));
    return w;
}

/** What one sweep found; inputs are reported by their bits. */
struct Sweep
{
    uint64_t digest = kFnvBasis;
    uint64_t twinMismatches = 0;
    uint64_t libmMismatches = 0;
    uint64_t firstTwinMismatch = kInputs;
    uint64_t firstLibmMismatch = kInputs;
};

/** Mismatch counts and first mismatching input of one block. */
struct BlockResult
{
    uint64_t digest = kFnvBasis;
    uint64_t twin = 0;
    uint64_t libm = 0;
    uint64_t firstTwin = kInputs;
    uint64_t firstLibm = kInputs;
};

Sweep
sweep(const tests::Transcendental &fn, bool with_libm)
{
    unsigned threads = std::max(1u, std::thread::hardware_concurrency());
    util::ThreadPool::setGlobalThreads(static_cast<int>(threads));
    bool avx2 = simd::avx2Supported();
    std::vector<float> in(kRound), scalar_out(kRound), avx2_out(kRound);
    std::vector<BlockResult> blocks(kBlocksPerRound);
    Sweep total;
    for (uint64_t base = 0; base < kInputs; base += kRound) {
        // One kernel call per block under each backend; the backend
        // is process-wide, so it switches between the sweeps only.
        auto run = [&](simd::Backend backend, std::vector<float> &out) {
            simd::setBackend(backend);
            util::parallelFor(0, kBlocksPerRound, 1,
                              [&](int64_t lo, int64_t hi) {
                                  fn.kernel(in.data() + lo * kBlock,
                                            out.data() + lo * kBlock,
                                            (hi - lo) * kBlock);
                              });
        };
        util::parallelFor(0, kRound, kBlock, [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; i++) {
                auto w = static_cast<uint32_t>(base + i);
                std::memcpy(&in[i], &w, sizeof(w));
            }
        });
        run(simd::Backend::Scalar, scalar_out);
        if (avx2)
            run(simd::Backend::Avx2, avx2_out);
        util::parallelFor(
            0, kBlocksPerRound, 1, [&](int64_t lo, int64_t hi) {
                for (int64_t b = lo; b < hi; b++) {
                    BlockResult r;
                    for (int64_t i = b * kBlock; i < (b + 1) * kBlock;
                         i++) {
                        uint32_t want = toBits(scalar_out[i]);
                        r.digest = (r.digest ^ want) * kFnvPrime;
                        if (avx2 && toBits(avx2_out[i]) != want) {
                            r.twin++;
                            r.firstTwin = std::min(r.firstTwin, base + i);
                        }
                        if (!with_libm)
                            continue;
                        uint32_t ref = toBits(fn.libm(in[i]));
                        if (ref != want ||
                            (avx2 && ref != toBits(avx2_out[i]))) {
                            r.libm++;
                            r.firstLibm = std::min(r.firstLibm, base + i);
                        }
                    }
                    blocks[b] = r;
                }
            });
        for (const BlockResult &r : blocks) {
            total.digest = (total.digest ^ r.digest) * kFnvPrime;
            total.twinMismatches += r.twin;
            total.libmMismatches += r.libm;
            total.firstTwinMismatch =
                std::min(total.firstTwinMismatch, r.firstTwin);
            total.firstLibmMismatch =
                std::min(total.firstLibmMismatch, r.firstLibm);
        }
    }
    simd::resetBackend();
    util::ThreadPool::setGlobalThreads(0);
    return total;
}

std::string
hex(uint64_t v)
{
    char text[24];
    std::snprintf(text, sizeof(text), "0x%llx",
                  static_cast<unsigned long long>(v));
    return text;
}

/** Sweeps @p name's twin and checks the three properties. */
void
checkEveryInput(const char *name, uint64_t want_digest)
{
    const tests::Transcendental *fn = nullptr;
    for (const tests::Transcendental &t : tests::transcendentals())
        if (std::string(t.name) == name)
            fn = &t;
    ASSERT_NE(fn, nullptr);
    std::string not_reference = tests::libmNotReference();
    Sweep s = sweep(*fn, not_reference.empty());
    EXPECT_EQ(s.twinMismatches, 0u)
        << name << ": scalar vs AVX2 twin, first at input "
        << hex(s.firstTwinMismatch);
    EXPECT_EQ(hex(s.digest), hex(want_digest))
        << name << ": digest of the outputs in input order";
    EXPECT_EQ(s.libmMismatches, 0u)
        << name << ": twins vs libm, first at input "
        << hex(s.firstLibmMismatch);
    if (!not_reference.empty() && !testing::Test::HasFailure())
        GTEST_SKIP() << "twins agree and match the digest; libm "
                        "comparison skipped: "
                     << not_reference;
}

// Digests of the twins' outputs over all inputs, which are glibc
// 2.36's outputs where the libm comparison runs. A change that moves
// any bit of any output changes them.
TEST(ExhaustiveTranscendental, Tanh)
{
    checkEveryInput("tanh", 0x16f9875365cf0d91ULL);
}

TEST(ExhaustiveTranscendental, Exp)
{
    checkEveryInput("exp", 0x9a5f9fe2d0889db8ULL);
}

TEST(ExhaustiveTranscendental, Sigmoid)
{
    checkEveryInput("sigmoid", 0x054bb9146a9dfcbaULL);
}

} // namespace
