/**
 * @file
 * Minimal radix-2 FFT used by the fast circular-convolution path.
 */

#ifndef NSBENCH_VSA_FFT_HH
#define NSBENCH_VSA_FFT_HH

#include <complex>
#include <vector>

namespace nsbench::vsa
{

/** True when n is a power of two (and positive). */
bool isPowerOfTwo(size_t n);

/**
 * In-place iterative radix-2 FFT. The length must be a power of two.
 * The bit-reversal swaps and the twiddles come from a plan built once
 * per (length, direction) and shared by every thread; the butterflies
 * run in util::simd::fftButterflies, which returns the same bits on
 * both backends.
 * @param values Signal, replaced by its spectrum.
 * @param inverse Run the inverse transform (including 1/n scaling).
 */
void fft(std::vector<std::complex<double>> &values, bool inverse);

} // namespace nsbench::vsa

#endif // NSBENCH_VSA_FFT_HH
