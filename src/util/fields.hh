/**
 * @file
 * Field lists: the one place a stats struct names what it reports.
 *
 * Each serving stats struct (serve::WorkloadMetrics, serve::NetStats,
 * net::BackendStats, ...) declares a list of Field entries next to
 * the code that renders it. Its table columns, its JSON keys and, for
 * structs bumped concurrently, its atomic snapshot and reset all come
 * from that list, so a counter added there shows up in every report.
 * Counters are named by member pointer into the struct itself: the
 * struct stays a plain value type whose fields read by name.
 *
 * Concurrently bumped structs are plain too. Writers add through
 * bump(), readers copy through snapshot(); both go through
 * std::atomic_ref, so no counter needs to be a std::atomic member.
 */

#ifndef NSBENCH_UTIL_FIELDS_HH
#define NSBENCH_UTIL_FIELDS_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace nsbench::util
{

/** One reported value of stats struct S. */
template <class S>
struct Field
{
    const char *column; ///< Table header; nullptr for JSON only.
    const char *key;    ///< JSON key; nullptr for table only.
    /** The counter, when the value is one; JSON carries its count. */
    uint64_t S::*counter = nullptr;
    /** Display text: the table cell, and the JSON value of a
     *  non-counter. A counter without it shows its count. */
    std::string (*text)(const S &) = nullptr;
    bool quoted = false; ///< The JSON value is a string.
};

template <class S>
using Fields = std::vector<Field<S>>;

/** Quotes @p text as a JSON string (escaping quotes, backslashes). */
inline std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Table headers: @p lead (when non-empty), then every column. */
template <class S>
std::vector<std::string>
columns(const Fields<S> &fields, const std::string &lead = "")
{
    std::vector<std::string> out;
    if (!lead.empty())
        out.push_back(lead);
    for (const Field<S> &f : fields)
        if (f.column)
            out.push_back(f.column);
    return out;
}

/** The table row of @p s, led by @p lead when non-empty. */
template <class S>
std::vector<std::string>
cells(const Fields<S> &fields, const S &s, const std::string &lead = "")
{
    std::vector<std::string> out;
    if (!lead.empty())
        out.push_back(lead);
    for (const Field<S> &f : fields)
        if (f.column)
            out.push_back(f.text ? f.text(s)
                                 : std::to_string(s.*f.counter));
    return out;
}

/** `"key":value` pairs of @p s, comma-separated, for an object. */
template <class S>
std::string
json(const Fields<S> &fields, const S &s)
{
    std::string out;
    for (const Field<S> &f : fields) {
        if (!f.key)
            continue;
        std::string value =
            f.counter ? std::to_string(s.*f.counter) : f.text(s);
        out += (out.empty() ? "\"" : ",\"") + std::string(f.key) +
               "\":" + (f.quoted ? jsonString(value) : value);
    }
    return out;
}

static_assert(std::atomic_ref<uint64_t>::required_alignment <=
                  alignof(uint64_t),
              "plain uint64_t counters must be atomic_ref-able");

/** Relaxed read of a counter that other threads bump(). */
inline uint64_t
load(uint64_t &counter)
{
    return std::atomic_ref<uint64_t>(counter).load(
        std::memory_order_relaxed);
}

/** Adds @p n to a counter that other threads snapshot(). */
inline void
bump(uint64_t &counter, uint64_t n = 1)
{
    std::atomic_ref<uint64_t>(counter).fetch_add(
        n, std::memory_order_relaxed);
}

/** Copies the counters in @p fields out of @p live, which other
 *  threads bump() meanwhile; every other member stays default. */
template <class S>
S
snapshot(const Fields<S> &fields, S &live)
{
    S out{};
    for (const Field<S> &f : fields)
        if (f.counter)
            out.*f.counter = load(live.*f.counter);
    return out;
}

/** Zeroes the counters in @p fields of @p live. */
template <class S>
void
zero(const Fields<S> &fields, S &live)
{
    for (const Field<S> &f : fields)
        if (f.counter)
            std::atomic_ref<uint64_t>(live.*f.counter)
                .store(0, std::memory_order_relaxed);
}

} // namespace nsbench::util

#endif // NSBENCH_UTIL_FIELDS_HH
