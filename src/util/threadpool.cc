#include "util/threadpool.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>

#include "util/format.hh"
#include "util/logging.hh"

namespace nsbench::util
{

namespace
{

/** Set while the current thread executes a parallelFor lane. */
thread_local bool tlInRegion = false;

/** Global-pool storage; guarded by gGlobalMu. */
std::mutex gGlobalMu;
std::unique_ptr<ThreadPool> gGlobalPool;
int gRequestedThreads = 0; ///< 0 = use defaultThreads().

} // namespace

ThreadPool::ThreadPool(int threads)
{
    lanes_ = std::max(1, threads);
    workers_.reserve(static_cast<size_t>(lanes_ - 1));
    for (int i = 0; i < lanes_ - 1; i++)
        workers_.emplace_back([this] { workerMain(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        // Destruction while a region is in flight would leave workers
        // touching a Job on a dead caller's stack; fail loudly instead
        // (see the shutdown contract in the header).
        panicIf(job_ != nullptr,
                "ThreadPool destroyed while a parallelFor is active");
        stop_ = true;
    }
    wakeCv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

bool
ThreadPool::inParallelRegion()
{
    return tlInRegion;
}

ThreadPool::SerialScope::SerialScope() : prev_(tlInRegion)
{
    tlInRegion = true;
}

ThreadPool::SerialScope::~SerialScope()
{
    tlInRegion = prev_;
}

void
ThreadPool::workerMain()
{
    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        wakeCv_.wait(lock,
                     [&] { return stop_ || jobGen_ != seen; });
        if (stop_)
            return;
        seen = jobGen_;
        Job *job = job_;
        if (!job)
            continue;
        job->refs++;
        lock.unlock();
        runLanes(*job);
        lock.lock();
        job->refs--;
        if (job->refs == 0)
            doneCv_.notify_all();
    }
}

void
ThreadPool::runLane(Job &job, int lane)
{
    // Lane `lane` owns chunks lane, lane + lanes, lane + 2*lanes, ...
    // The chunk grid depends only on (begin, end, grain), so results
    // of chunk-structured kernels are stable across pool widths.
    for (int64_t chunk = lane;; chunk += job.lanes) {
        int64_t lo = job.begin + chunk * job.grain;
        if (lo >= job.end)
            break;
        int64_t hi = std::min(job.end, lo + job.grain);
        (*job.fn)(lo, hi);
    }
}

void
ThreadPool::runLanes(Job &job)
{
    bool was_in_region = tlInRegion;
    tlInRegion = true;
    for (;;) {
        int lane = job.nextLane.fetch_add(1, std::memory_order_relaxed);
        if (lane >= job.lanes)
            break;
        try {
            runLane(job, lane);
        } catch (...) {
            std::lock_guard<std::mutex> lock(job.errMu);
            if (!job.error)
                job.error = std::current_exception();
        }
        job.doneLanes.fetch_add(1, std::memory_order_release);
    }
    tlInRegion = was_in_region;
}

void
ThreadPool::parallelFor(int64_t begin, int64_t end, int64_t grain,
                        const RangeFn &fn)
{
    if (end <= begin)
        return;
    grain = std::max<int64_t>(1, grain);
    int64_t items = end - begin;
    int64_t chunks = (items + grain - 1) / grain;
    int lanes = static_cast<int>(
        std::min<int64_t>(lanes_, chunks));

    // Serial fast path: width-1 pools, single-chunk loops, and nested
    // regions (workers must never block on a sub-region of their own
    // pool) all run inline on the calling thread.
    if (lanes <= 1 || tlInRegion) {
        SerialScope inline_region;
        fn(begin, end);
        return;
    }

    Job job;
    job.begin = begin;
    job.end = end;
    job.grain = grain;
    job.lanes = lanes;
    job.fn = &fn;

    {
        std::lock_guard<std::mutex> lock(mu_);
        job_ = &job;
        jobGen_++;
    }
    wakeCv_.notify_all();

    // The caller is a full participant; with more lanes than awake
    // workers it simply claims the leftover lanes itself.
    runLanes(job);

    {
        std::unique_lock<std::mutex> lock(mu_);
        doneCv_.wait(lock, [&] {
            return job.doneLanes.load(std::memory_order_acquire) >=
                       job.lanes &&
                   job.refs == 0;
        });
        job_ = nullptr;
    }

    if (job.error)
        std::rethrow_exception(job.error);
}

int
ThreadPool::defaultThreads()
{
    if (const char *env = std::getenv("NSBENCH_THREADS")) {
        int parsed = 0;
        if (parseWhole(env, &parsed) && parsed >= 1 &&
            parsed <= kMaxThreads)
            return parsed;
        warn("NSBENCH_THREADS=\"" + std::string(env) +
             "\" is not a whole number in 1.." +
             std::to_string(kMaxThreads) +
             "; using the hardware width");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(static_cast<int>(hw), 1, kMaxThreads);
}

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lock(gGlobalMu);
    if (!gGlobalPool) {
        int width = gRequestedThreads > 0 ? gRequestedThreads
                                          : defaultThreads();
        gGlobalPool = std::make_unique<ThreadPool>(width);
    }
    return *gGlobalPool;
}

void
ThreadPool::setGlobalThreads(int threads)
{
    panicIf(tlInRegion,
            "ThreadPool::setGlobalThreads inside a parallel region");
    std::lock_guard<std::mutex> lock(gGlobalMu);
    gRequestedThreads = threads > 0 ? threads : 0;
    gGlobalPool.reset(); // Re-created lazily at the new width.
}

int
ThreadPool::globalThreads()
{
    std::lock_guard<std::mutex> lock(gGlobalMu);
    if (gGlobalPool)
        return gGlobalPool->threads();
    return gRequestedThreads > 0 ? gRequestedThreads
                                 : defaultThreads();
}

int64_t
grainFor(double workPerItem, double targetWork)
{
    if (workPerItem <= 0.0)
        workPerItem = 1.0;
    double grain = std::ceil(targetWork / workPerItem);
    return std::max<int64_t>(1, static_cast<int64_t>(grain));
}

} // namespace nsbench::util
