/**
 * @file
 * The shared parallel execution runtime.
 *
 * A persistent fork-join worker pool with a static-chunking
 * parallelFor. Every hot kernel in the suite (tensor ops, VSA sweeps,
 * codebook cleanups) funnels its loops through here, so one knob — the
 * pool width — controls the parallelism of the whole suite.
 *
 * Determinism contract: parallelFor decomposes [begin, end) into
 * fixed-size chunks of `grain` iterations. The chunk boundaries depend
 * only on the grain, never on the pool width or on scheduling, so a
 * kernel that computes per-chunk partials and combines them in chunk
 * order produces the same floating-point result at every thread count.
 * Pure element-wise maps are bit-identical to the serial loop by
 * construction.
 *
 * Configuration: the global pool width defaults to the NSBENCH_THREADS
 * environment variable when set, else the hardware concurrency. The
 * `nsbench` CLI exposes it as --threads N. Every thread count taken
 * from outside the program is capped at kMaxThreads.
 *
 * Whatever a lane writes is visible to the caller once parallelFor
 * returns. An op a lane records applies to its profiler under the
 * profiler's lock before recordOp returns (core/profiler.hh), so a
 * region's ops are all counted by then too.
 */

#ifndef NSBENCH_UTIL_THREADPOOL_HH
#define NSBENCH_UTIL_THREADPOOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nsbench::util
{

/**
 * The most threads any count from outside the program may ask for:
 * the pool width (--threads, NSBENCH_THREADS), server workers
 * (--workers) and closed-loop load clients (--clients). The CLI
 * rejects a larger flag before it starts anything; a larger
 * NSBENCH_THREADS warns and falls back to the hardware width.
 */
inline constexpr int kMaxThreads = 1024;

/**
 * Persistent fork-join thread pool.
 *
 * The pool owns `threads() - 1` worker threads; the thread that calls
 * parallelFor always participates as the first lane, so a width-1 pool
 * spawns no threads and runs everything inline. Workers sleep on a
 * condition variable between regions, so an idle pool costs nothing on
 * the hot path.
 */
class ThreadPool
{
  public:
    /** Loop body: processes the half-open iteration range [lo, hi). */
    using RangeFn = std::function<void(int64_t, int64_t)>;

    /** Creates a pool of the given total width (minimum 1). */
    explicit ThreadPool(int threads);

    /**
     * Joins all workers.
     *
     * Shutdown contract: the destructor must not race an active
     * parallelFor on this pool. parallelFor blocks its caller until
     * the region completes, so the contract is only at risk when
     * *another* thread is inside parallelFor while this one
     * destroys the pool — external serialization (e.g. the serve
     * runtime's drain: stop producers, drain queues, join consumers,
     * then destroy) must make that impossible. The destructor
     * asserts the quiescence it relies on: a region still in flight
     * is a fatal error, not undefined behaviour.
     */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total parallelism: worker threads plus the calling thread. */
    int threads() const { return lanes_; }

    /**
     * Runs fn over [begin, end) split into chunks of at most `grain`
     * iterations, distributed round-robin over up to threads() lanes.
     * Blocks until every chunk has run. Nested calls from inside a
     * parallel region degrade to a serial inline loop, so kernels may
     * compose freely. Exceptions thrown by fn are rethrown (first one
     * wins) after the region completes.
     */
    void parallelFor(int64_t begin, int64_t end, int64_t grain,
                     const RangeFn &fn);

    /** True while the calling thread is executing inside a region. */
    static bool inParallelRegion();

    /**
     * RAII scope that pins the calling thread to serial kernel
     * execution: while alive, every parallelFor issued from this
     * thread runs inline (the nested-region fast path) instead of
     * dispatching to the pool. The serving runtime wraps each
     * request-execution thread in one of these, so concurrent
     * replicas never contend for the global pool and a request's
     * entire op stream stays on its worker thread — which is what
     * makes per-request profiler attribution exact. Scopes nest.
     */
    class SerialScope
    {
      public:
        SerialScope();
        ~SerialScope();

        SerialScope(const SerialScope &) = delete;
        SerialScope &operator=(const SerialScope &) = delete;

      private:
        bool prev_;
    };

    /**
     * The process-global pool all kernels use. Created on first use
     * with defaultThreads() width.
     */
    static ThreadPool &global();

    /**
     * Replaces the global pool with one of the given width. Must not
     * be called while a parallel region is active. Width < 1 resets to
     * defaultThreads().
     */
    static void setGlobalThreads(int threads);

    /** Width the global pool has (or would be created with). */
    static int globalThreads();

    /**
     * Pool width implied by the environment: NSBENCH_THREADS when it
     * parses whole (util::parseWhole) as a number in 1..kMaxThreads,
     * else std::thread::hardware_concurrency() (at most kMaxThreads).
     * A set value outside that rule warns.
     */
    static int defaultThreads();

  private:
    struct Job
    {
        int64_t begin = 0;
        int64_t end = 0;
        int64_t grain = 1;
        int lanes = 0;
        const RangeFn *fn = nullptr;
        std::atomic<int> nextLane{0};
        std::atomic<int> doneLanes{0};
        int refs = 0; ///< Workers currently inside the job (guarded by mu_).
        std::exception_ptr error; ///< First failure (guarded by errMu).
        std::mutex errMu;
    };

    void workerMain();
    void runLanes(Job &job);
    void runLane(Job &job, int lane);

    int lanes_ = 1;
    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable wakeCv_; ///< Workers wait here for a job.
    std::condition_variable doneCv_; ///< The caller waits here for quiescence.
    uint64_t jobGen_ = 0;
    Job *job_ = nullptr;
    bool stop_ = false;
};

/**
 * Chunk size that amortizes dispatch overhead: enough iterations that
 * one chunk performs roughly `targetWork` scalar operations, given
 * `workPerItem` operations per iteration. Depends only on the loop
 * shape, never on the pool width, preserving the determinism contract.
 */
int64_t grainFor(double workPerItem, double targetWork = 32768.0);

/** Shorthand: parallelFor on the global pool. */
inline void
parallelFor(int64_t begin, int64_t end, int64_t grain,
            const ThreadPool::RangeFn &fn)
{
    ThreadPool::global().parallelFor(begin, end, grain, fn);
}

} // namespace nsbench::util

#endif // NSBENCH_UTIL_THREADPOOL_HH
