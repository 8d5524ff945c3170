/**
 * @file
 * Single-flight coalescing tests: leader election, waiter parking,
 * pruning of dead waiters, fan-out on finish, and flight lifecycle.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/single_flight.hh"

namespace
{

using nsbench::cache::SingleFlight;

using Flight = SingleFlight<int>;

/** Selects the negative waiters as dead. */
bool
negative(int waiter)
{
    return waiter < 0;
}

TEST(CacheSingleFlight, FirstJoinLeadsLaterJoinsFollow)
{
    Flight flights;
    EXPECT_EQ(flights.join("k", 1), Flight::Role::Leader);
    EXPECT_EQ(flights.join("k", 2), Flight::Role::Follower);
    EXPECT_EQ(flights.join("k", 3), Flight::Role::Follower);
    EXPECT_EQ(flights.inFlight(), 1u);
}

TEST(CacheSingleFlight, FinishReturnsFollowersInJoinOrder)
{
    Flight flights;
    ASSERT_EQ(flights.join("k", 1), Flight::Role::Leader);
    flights.join("k", 2);
    flights.join("k", 3);

    // The leader waits like everyone else, ahead of its followers.
    std::vector<int> waiters = flights.finish("k");
    EXPECT_EQ(waiters, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(flights.inFlight(), 0u);
}

TEST(CacheSingleFlight, FinishOnUnknownKeyIsEmpty)
{
    Flight flights;
    EXPECT_TRUE(flights.finish("nope").empty());
}

TEST(CacheSingleFlight, KeysFlyIndependently)
{
    Flight flights;
    EXPECT_EQ(flights.join("a", 1), Flight::Role::Leader);
    EXPECT_EQ(flights.join("b", 2), Flight::Role::Leader);
    EXPECT_EQ(flights.join("a", 3), Flight::Role::Follower);
    EXPECT_EQ(flights.inFlight(), 2u);
    EXPECT_EQ(flights.finish("a"), (std::vector<int>{1, 3}));
    EXPECT_EQ(flights.inFlight(), 1u);
    EXPECT_EQ(flights.finish("b"), (std::vector<int>{2}));
}

TEST(CacheSingleFlight, NewFlightStartsAfterFinish)
{
    Flight flights;
    ASSERT_EQ(flights.join("k", 1), Flight::Role::Leader);
    flights.finish("k");
    // The key is free again: the next joiner leads a fresh flight.
    EXPECT_EQ(flights.join("k", 2), Flight::Role::Leader);
}

TEST(CacheSingleFlight, PruneRemovesOnlyDeadWaiters)
{
    Flight flights;
    flights.join("k", -1); // A dead leader...
    flights.join("k", 2);  // ...does not take its followers along.
    flights.join("k", -3);
    flights.join("k", 4);

    std::vector<int> dead;
    EXPECT_EQ(flights.prune("k", negative, &dead), 2u);
    EXPECT_EQ(dead, (std::vector<int>{-1, -3}));
    EXPECT_EQ(flights.inFlight(), 1u);
    // The survivors keep their join order for the fan-out.
    EXPECT_EQ(flights.finish("k"), (std::vector<int>{2, 4}));
}

TEST(CacheSingleFlight, PruningTheLastWaiterEndsTheFlight)
{
    Flight flights;
    flights.join("k", -1);
    flights.join("k", -2);

    std::vector<int> dead;
    EXPECT_EQ(flights.prune("k", negative, &dead), 0u);
    EXPECT_EQ(dead, (std::vector<int>{-1, -2}));
    // Ended under the prune's lock: nothing can join the dead flight,
    // so finish() finds nobody to answer and the next joiner leads a
    // new flight.
    EXPECT_EQ(flights.inFlight(), 0u);
    EXPECT_TRUE(flights.finish("k").empty());
    EXPECT_EQ(flights.join("k", 5), Flight::Role::Leader);
}

TEST(CacheSingleFlight, PruneOnUnknownKeyFindsNobody)
{
    Flight flights;
    flights.join("a", -1);
    std::vector<int> dead;
    EXPECT_EQ(flights.prune("b", negative, &dead), 0u);
    EXPECT_TRUE(dead.empty());
    EXPECT_EQ(flights.inFlight(), 1u);
}

} // namespace
