#include "vsa/fft.hh"

#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <numbers>
#include <utility>

#include "util/logging.hh"
#include "util/simd.hh"

namespace nsbench::vsa
{

bool
isPowerOfTwo(size_t n)
{
    return n > 0 && (n & (n - 1)) == 0;
}

namespace
{

/**
 * What a transform needs that depends only on its length and
 * direction: the bit-reversal swaps and every stage's twiddles.
 */
struct Plan
{
    std::vector<std::pair<size_t, size_t>> swaps;
    /** For half = 1, 2, ..., n / 2 in turn: w_0..w_{half-1}. */
    std::vector<std::complex<double>> twiddles;
};

Plan
buildPlan(size_t n, bool inverse)
{
    Plan plan;
    for (size_t i = 1, j = 0; i < n; i++) {
        size_t bit = n >> 1;
        for (; j & bit; bit >>= 1)
            j ^= bit;
        j ^= bit;
        if (i < j)
            plan.swaps.emplace_back(i, j);
    }
    // Twiddles by recurrence, w_0 = 1 and w_{k+1} = w_k * wlen, not
    // cos and sin of k * angle: the recurrence's roundings are in every
    // score and golden.
    plan.twiddles.reserve(n - 1);
    for (size_t len = 2; len <= n; len <<= 1) {
        double angle = 2.0 * std::numbers::pi /
                       static_cast<double>(len) * (inverse ? 1.0 : -1.0);
        std::complex<double> wlen(std::cos(angle), std::sin(angle));
        std::complex<double> w(1.0, 0.0);
        for (size_t k = 0; k < len / 2; k++) {
            plan.twiddles.push_back(w);
            w *= wlen;
        }
    }
    return plan;
}

/**
 * The plan of (n, inverse), built on first use and then only read:
 * one per length and direction for the life of the process.
 */
const Plan &
planFor(size_t n, bool inverse)
{
    static std::mutex mu;
    static std::array<std::unique_ptr<const Plan>, 2 * 64> plans;
    std::lock_guard<std::mutex> lock(mu);
    auto &plan = plans[2 * std::countr_zero(n) + (inverse ? 1 : 0)];
    if (!plan)
        plan = std::make_unique<const Plan>(buildPlan(n, inverse));
    return *plan;
}

} // namespace

void
fft(std::vector<std::complex<double>> &values, bool inverse)
{
    size_t n = values.size();
    util::panicIf(!isPowerOfTwo(n), "fft: length must be a power of 2");
    if (n == 1)
        return;

    const Plan &plan = planFor(n, inverse);
    for (auto [i, j] : plan.swaps)
        std::swap(values[i], values[j]);
    util::simd::fftButterflies(values.data(), plan.twiddles.data(),
                               static_cast<int64_t>(n));

    if (inverse) {
        for (auto &v : values)
            v /= static_cast<double>(n);
    }
}

} // namespace nsbench::vsa
