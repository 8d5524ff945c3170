/**
 * @file
 * The bounded MPMC queue under the serving runtime.
 *
 * A mutex-and-condvar ring with a hard capacity. Admission control
 * builds on tryPush (full queue -> reject, never block the client);
 * the workers build on the blocking pop. close() starts a graceful
 * drain: pushes fail immediately, pops keep returning queued items
 * until the queue is empty and only then report exhaustion, so
 * nothing admitted is ever dropped.
 */

#ifndef NSBENCH_SERVE_QUEUE_HH
#define NSBENCH_SERVE_QUEUE_HH

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "util/failpoint.hh"
#include "util/logging.hh"

namespace nsbench::serve
{

/**
 * Bounded multi-producer multi-consumer FIFO queue.
 */
template <typename T>
class BoundedQueue
{
  public:
    /** @param capacity Maximum queued items; must be positive. */
    explicit BoundedQueue(size_t capacity) : capacity_(capacity)
    {
        util::panicIf(capacity == 0,
                      "BoundedQueue: capacity must be positive");
    }

    BoundedQueue(const BoundedQueue &) = delete;
    BoundedQueue &operator=(const BoundedQueue &) = delete;

    /**
     * Enqueues without blocking. Returns false when the queue is full
     * or closed (the admission-control rejection path).
     */
    bool
    tryPush(T item)
    {
        // Chaos site: a transient "full" answer — the caller's
        // admission-control rejection path fires without the queue
        // actually filling, and nothing is enqueued or lost.
        if (NSBENCH_FAILPOINT(util::failpoints::sites::kQueueTryPush))
            return false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (closed_ || items_.size() >= capacity_)
                return false;
            items_.push_back(std::move(item));
        }
        canPop_.notify_one();
        return true;
    }

    /**
     * Enqueues, blocking while the queue is full. Returns false when
     * the queue is (or becomes) closed.
     */
    bool
    push(T item)
    {
        {
            std::unique_lock<std::mutex> lock(mu_);
            canPush_.wait(lock, [&] {
                return closed_ || items_.size() < capacity_;
            });
            if (closed_)
                return false;
            items_.push_back(std::move(item));
        }
        canPop_.notify_one();
        return true;
    }

    /**
     * Dequeues, blocking until an item arrives. Returns nullopt only
     * when the queue is closed *and* drained.
     */
    std::optional<T>
    pop()
    {
        injectStall();
        std::unique_lock<std::mutex> lock(mu_);
        canPop_.wait(lock,
                     [&] { return closed_ || !items_.empty(); });
        return takeLocked(lock);
    }

    /**
     * Closes the queue: subsequent pushes fail, pops drain what is
     * already queued. Idempotent.
     */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            closed_ = true;
        }
        canPop_.notify_all();
        canPush_.notify_all();
    }

    /** True once close() has been called. */
    bool
    closed() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return closed_;
    }

    /** True when closed and no items remain. */
    bool
    drained() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return closed_ && items_.empty();
    }

    /** Items currently queued. */
    size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return items_.size();
    }

  private:
    /**
     * Chaos site: a consumer stall. The blocked time models a worker
     * hiccup — items are delayed, never dropped, so the close/drain
     * protocol's guarantees are what's under test.
     */
    static void
    injectStall()
    {
        if (NSBENCH_FAILPOINT(util::failpoints::sites::kQueuePop))
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
    }

    /** Pops the head; mu_ must be held and items_ non-empty. */
    std::optional<T>
    takeLocked(std::unique_lock<std::mutex> &lock)
    {
        if (items_.empty())
            return std::nullopt;
        T item = std::move(items_.front());
        items_.pop_front();
        lock.unlock();
        canPush_.notify_one();
        return item;
    }

    mutable std::mutex mu_;
    std::condition_variable canPop_;
    std::condition_variable canPush_;
    std::deque<T> items_;
    size_t capacity_;
    bool closed_ = false;
};

} // namespace nsbench::serve

#endif // NSBENCH_SERVE_QUEUE_HH
