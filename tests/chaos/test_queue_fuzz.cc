/**
 * @file
 * Property-based fuzz of the BoundedQueue close/drain protocol.
 *
 * The property under test is the queue's one hard promise: an item
 * whose push was *accepted* is delivered to exactly one consumer —
 * never dropped, never duplicated — no matter how producers,
 * consumers and a mid-stream close() interleave. Each iteration runs
 * a seeded scenario (thread counts, producer discipline, close
 * timing all drawn from a util::Rng), so failures reproduce from the
 * iteration's seed alone.
 *
 * Part of the chaos tier; runs under TSan in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "serve/queue.hh"
#include "util/failpoint.hh"
#include "util/rng.hh"

namespace
{

using namespace nsbench;

/** One seeded producer/consumer/close scenario. */
void
fuzzOnce(uint64_t seed)
{
    util::Rng rng(seed);
    const size_t capacity =
        static_cast<size_t>(rng.uniformInt(1, 16));
    const int producers = static_cast<int>(rng.uniformInt(1, 4));
    const int consumers = static_cast<int>(rng.uniformInt(1, 4));
    const int perProducer = static_cast<int>(rng.uniformInt(8, 64));
    // Close after ~half the expected items have been produced; 0
    // closes immediately, exercising the reject-everything edge.
    const int closeAfter = static_cast<int>(rng.uniformInt(
        0, static_cast<int64_t>(producers) * perProducer));

    serve::BoundedQueue<uint64_t> queue(capacity);
    std::mutex mu;
    std::set<uint64_t> accepted;
    std::vector<uint64_t> delivered;
    std::atomic<int> produced{0};
    std::atomic<bool> closeFired{false};

    auto maybeClose = [&] {
        if (produced.fetch_add(1) + 1 >= closeAfter &&
            !closeFired.exchange(true))
            queue.close();
    };

    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            util::Rng localRng(seed ^
                               (0x9E3779B97F4A7C15ULL *
                                static_cast<uint64_t>(p + 1)));
            for (int i = 0; i < perProducer; ++i) {
                uint64_t item =
                    (static_cast<uint64_t>(p) << 32) |
                    static_cast<uint64_t>(i);
                // Mix the blocking and non-blocking producer paths;
                // both must report acceptance truthfully.
                bool ok = localRng.uniformDouble() < 0.5
                              ? queue.push(item)
                              : queue.tryPush(item);
                if (ok) {
                    std::lock_guard<std::mutex> lock(mu);
                    accepted.insert(item);
                }
                maybeClose();
            }
        });
    }
    for (int c = 0; c < consumers; ++c) {
        threads.emplace_back([&] {
            while (auto item = queue.pop()) {
                std::lock_guard<std::mutex> lock(mu);
                delivered.push_back(*item);
            }
        });
    }
    for (int p = 0; p < producers; ++p)
        threads[static_cast<size_t>(p)].join();
    // closeAfter can exceed the total production count; close
    // unconditionally (idempotent) so the consumers always drain out.
    queue.close();
    for (size_t t = static_cast<size_t>(producers);
         t < threads.size(); ++t)
        threads[t].join();

    // Exactly once: the delivered multiset equals the accepted set.
    std::set<uint64_t> deliveredSet(delivered.begin(),
                                    delivered.end());
    EXPECT_EQ(delivered.size(), deliveredSet.size())
        << "duplicate delivery, seed " << seed;
    EXPECT_EQ(deliveredSet, accepted) << "seed " << seed;
    // Closed and drained: nothing remains, and late consumers see
    // exhaustion immediately.
    EXPECT_TRUE(queue.drained()) << "seed " << seed;
    EXPECT_EQ(queue.pop(), std::nullopt);
    // Post-close pushes must be refused.
    EXPECT_FALSE(queue.tryPush(~0ull));
    EXPECT_FALSE(queue.push(~0ull));
}

TEST(QueueFuzz, CloseDrainExactlyOnceAcrossSeededScenarios)
{
    for (uint64_t seed = 1; seed <= 24; ++seed)
        fuzzOnce(seed);
}

TEST(QueueFuzz, CloseDrainHoldsUnderInjectedQueueFaults)
{
    // The queue's own failpoints — spurious tryPush rejections and
    // consumer stalls — must not weaken the protocol: acceptance is
    // still truthful and accepted items still arrive exactly once.
    ASSERT_EQ(nsbench::util::failpoints::configure(
                  "serve.queue.trypush=0.2@5,serve.queue.pop=0.2@6"),
              "");
    for (uint64_t seed = 100; seed <= 112; ++seed)
        fuzzOnce(seed);
    nsbench::util::failpoints::reset();
}

} // namespace
