/**
 * @file
 * Integer hash mixing.
 */

#ifndef NSBENCH_UTIL_HASH_HH
#define NSBENCH_UTIL_HASH_HH

#include <cstdint>

namespace nsbench::util
{

/**
 * MurmurHash3's 64-bit finalizer: each input bit flips every output
 * bit with probability about 1/2, so the low bits of the result are
 * fit to index a power-of-two table even when the inputs differ only
 * in a few bits.
 */
inline uint64_t
fmix64(uint64_t hash)
{
    hash ^= hash >> 33;
    hash *= 0xff51afd7ed558ccdULL;
    hash ^= hash >> 33;
    hash *= 0xc4ceb9fe1a85ec53ULL;
    hash ^= hash >> 33;
    return hash;
}

} // namespace nsbench::util

#endif // NSBENCH_UTIL_HASH_HH
