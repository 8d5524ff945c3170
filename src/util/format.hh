/**
 * @file
 * Human-readable formatting helpers for report output, and the one
 * rule for reading numbers back from text.
 */

#ifndef NSBENCH_UTIL_FORMAT_HH
#define NSBENCH_UTIL_FORMAT_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <system_error>
#include <type_traits>

namespace nsbench::util
{

/** Formats a byte count as e.g. "1.50 MiB". */
std::string humanBytes(uint64_t bytes);

/** Formats a duration in seconds as e.g. "12.3 ms" or "2.1 s". */
std::string humanSeconds(double seconds);

/** Formats an op/FLOP count as e.g. "3.2 GFLOP". */
std::string humanCount(double count, const std::string &unit = "");

/** Formats a fraction in [0,1] as a fixed-width percentage, e.g. "45.4%". */
std::string percentStr(double fraction, int decimals = 1);

/** Formats a double with the given number of decimals. */
std::string fixedStr(double value, int decimals = 2);

/**
 * The one number rule for the command line: @p text must be one
 * finite number with nothing after it. atoi and strtoull read "2x" as
 * 2 and "abc" as 0.
 */
template <typename T>
bool
parseWhole(const std::string &text, T *value)
{
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, *value);
    if constexpr (std::is_floating_point_v<T>) {
        if (ec == std::errc() && !std::isfinite(*value))
            return false;
    }
    return ec == std::errc() && ptr == end;
}

} // namespace nsbench::util

#endif // NSBENCH_UTIL_FORMAT_HH
