/**
 * @file
 * Single-flight request coalescing.
 *
 * Concurrent requests for the same key share one execution: the first
 * to join a key leads its flight, later joiners follow, and every
 * joiner — leader included — is parked here as a waiter until the
 * flight ends. This is the serving runtime's only coalescing
 * mechanism; the result cache, when enabled, sits in front of it and
 * answers keys whose flight already landed.
 */

#ifndef NSBENCH_CACHE_SINGLE_FLIGHT_HH
#define NSBENCH_CACHE_SINGLE_FLIGHT_HH

#include <cstddef>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace nsbench::cache
{

/**
 * Tracks in-flight keys and parks their waiters.
 *
 * @tparam Waiter per-request state fanned back when the flight ends
 *         (the serve layer stores the request's callback, deadline
 *         and cancel token).
 */
template <typename Waiter> class SingleFlight
{
  public:
    enum class Role { Leader, Follower };

    /**
     * Parks @p waiter on the flight for @p key. The first caller
     * starts the flight and leads it: it must make sure the flight is
     * eventually ended by prune() or finish(). Later callers follow.
     */
    Role
    join(const std::string &key, Waiter waiter)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto [it, inserted] = flights_.try_emplace(key);
        it->second.push_back(std::move(waiter));
        return inserted ? Role::Leader : Role::Follower;
    }

    /**
     * Moves every waiter of @p key that @p dead selects into
     * @p removed, keeping the rest in join order, and returns how many
     * are left. At zero the flight ends here, under the same lock, so
     * no later join() can attach to a flight whose execution the
     * caller is about to skip.
     */
    template <typename Dead>
    size_t
    prune(const std::string &key, Dead dead,
          std::vector<Waiter> *removed)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = flights_.find(key);
        if (it == flights_.end())
            return 0;
        std::vector<Waiter> live;
        for (Waiter &waiter : it->second) {
            if (dead(waiter))
                removed->push_back(std::move(waiter));
            else
                live.push_back(std::move(waiter));
        }
        if (live.empty()) {
            flights_.erase(it);
            return 0;
        }
        it->second = std::move(live);
        return it->second.size();
    }

    /**
     * Ends the flight for @p key and returns its waiters in join
     * order; the caller decides what to deliver to each.
     */
    std::vector<Waiter>
    finish(const std::string &key)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = flights_.find(key);
        if (it == flights_.end())
            return {};
        std::vector<Waiter> waiters = std::move(it->second);
        flights_.erase(it);
        return waiters;
    }

    /** Number of keys currently in flight (for tests). */
    size_t
    inFlight() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return flights_.size();
    }

  private:
    mutable std::mutex mu_;
    std::unordered_map<std::string, std::vector<Waiter>> flights_;
};

} // namespace nsbench::cache

#endif // NSBENCH_CACHE_SINGLE_FLIGHT_HH
