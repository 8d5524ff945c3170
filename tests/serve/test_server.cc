/**
 * @file
 * Server behaviour tests over the fake workload: admission control,
 * deadlines, single-flight coalescing and its per-waiter semantics,
 * graceful drain, and callback delivery.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "fake_workload.hh"
#include "serve/server.hh"

namespace
{

using namespace nsbench;
using namespace std::chrono_literals;
using tests::FakeCounters;
using tests::FakeWorkload;

serve::ServerOptions
fakeOptions(FakeCounters &counters, bool seed_sensitive,
            int sleep_ms = 0)
{
    serve::ServerOptions options;
    options.workloads = {"Fake"};
    options.workers = 1;
    options.factory = [&counters, seed_sensitive,
                       sleep_ms](const std::string &) {
        return std::make_unique<FakeWorkload>(counters,
                                              seed_sensitive,
                                              sleep_ms);
    };
    return options;
}

/** Submits one Fake request; the future holds its response. */
std::future<serve::Response>
submitFake(serve::Server &server, uint64_t seed,
           serve::TimePoint deadline = serve::noDeadline(),
           serve::CancelToken cancel = nullptr)
{
    auto promise = std::make_shared<std::promise<serve::Response>>();
    auto future = promise->get_future();
    EXPECT_EQ(server.submit(
                  "Fake", seed,
                  [promise](const serve::Response &response) {
                      promise->set_value(response);
                  },
                  deadline, std::move(cancel)),
              serve::RequestStatus::Ok);
    return future;
}

TEST(ServeServer, PrewarmsOneReplicaPerWorkerBeforeServing)
{
    FakeCounters counters;
    auto options = fakeOptions(counters, true);
    options.workers = 3;
    serve::Server server(std::move(options));
    // The constructor blocks until pre-warm completes: one setUp per
    // (worker, workload) and no runs yet.
    EXPECT_EQ(counters.setUps.load(), 3u);
    EXPECT_EQ(counters.runs.load(), 0u);
}

TEST(ServeServer, CallReturnsTheDeterministicScore)
{
    FakeCounters counters;
    serve::Server server(fakeOptions(counters, true));

    serve::Response first = server.call("Fake", 7);
    serve::Response again = server.call("Fake", 7);
    serve::Response other = server.call("Fake", 8);

    EXPECT_EQ(first.status, serve::RequestStatus::Ok);
    EXPECT_EQ(first.score, again.score);
    EXPECT_NE(first.score, other.score);
    EXPECT_GT(first.latencySeconds, 0.0);
    EXPECT_GE(first.latencySeconds, first.queueSeconds);
}

TEST(ServeServer, RejectsUnknownWorkload)
{
    FakeCounters counters;
    serve::Server server(fakeOptions(counters, true));
    serve::Response response = server.call("NoSuch", 1);
    EXPECT_EQ(response.status,
              serve::RequestStatus::RejectedUnknownWorkload);
    EXPECT_EQ(
        server.metrics().workload("NoSuch").rejectedUnknown, 1u);
}

TEST(ServeServer, RejectsDeadOnArrivalDeadline)
{
    FakeCounters counters;
    serve::Server server(fakeOptions(counters, true));
    serve::Response response = server.call(
        "Fake", 1, serve::ServeClock::now() - 1ms);
    EXPECT_EQ(response.status,
              serve::RequestStatus::RejectedDeadline);
    EXPECT_EQ(counters.runs.load(), 0u);
}

TEST(ServeServer, ExpiresRequestsThatOutwaitTheirDeadline)
{
    FakeCounters counters;
    // 30 ms of service per run on a single worker: the second
    // request's 5 ms deadline expires while it queues.
    serve::Server server(fakeOptions(counters, true, 30));

    std::atomic<int> expired{0};
    std::atomic<int> done{0};
    std::mutex mu;
    std::condition_variable cv;
    int outstanding = 2;
    auto callback = [&](const serve::Response &response) {
        if (response.status == serve::RequestStatus::Expired)
            expired.fetch_add(1);
        else
            done.fetch_add(1);
        std::lock_guard<std::mutex> lock(mu);
        if (--outstanding == 0)
            cv.notify_all();
    };

    ASSERT_EQ(server.submit("Fake", 1, callback),
              serve::RequestStatus::Ok);
    ASSERT_EQ(server.submit("Fake", 2, callback,
                            serve::ServeClock::now() + 5ms),
              serve::RequestStatus::Ok);
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return outstanding == 0; });
    }
    EXPECT_EQ(done.load(), 1);
    EXPECT_EQ(expired.load(), 1);
    EXPECT_EQ(server.metrics().workload("Fake").expired, 1u);
}

TEST(ServeServer, BackpressureRejectsWhenQueueFills)
{
    FakeCounters counters;
    auto options = fakeOptions(counters, true, 50);
    options.queueCapacity = 2;
    serve::Server server(std::move(options));

    // Saturate the single slow worker, then overfill the queue.
    std::atomic<int> completions{0};
    auto callback = [&](const serve::Response &) {
        completions.fetch_add(1);
    };
    int admitted = 0;
    int rejected = 0;
    for (uint64_t i = 0; i < 12; i++) {
        serve::RequestStatus status =
            server.submit("Fake", i, callback);
        if (status == serve::RequestStatus::Ok)
            admitted++;
        else if (status == serve::RequestStatus::RejectedQueueFull)
            rejected++;
    }
    EXPECT_GT(rejected, 0);
    server.shutdown();
    // Graceful drain: every admitted request completed, rejected
    // requests never saw a callback.
    EXPECT_EQ(completions.load(), admitted);
    EXPECT_EQ(server.metrics().workload("Fake").rejectedQueueFull,
              static_cast<uint64_t>(rejected));
}

TEST(ServeServer, CoalescesSameSeedRequests)
{
    FakeCounters counters;
    serve::Server server(fakeOptions(counters, true, 5));

    // Warm-up request, then 8 requests for two distinct seeds.
    server.call("Fake", 99);
    uint64_t runsBefore = counters.runs.load();

    std::vector<std::future<serve::Response>> responses;
    for (uint64_t i = 0; i < 8; i++)
        responses.push_back(submitFake(server, i % 2));
    std::vector<double> scoresBySeed[2];
    for (size_t i = 0; i < responses.size(); i++)
        scoresBySeed[i % 2].push_back(responses[i].get().score);

    // Two distinct seeds -> at most a handful of runs, far fewer
    // than 8; every member of a seed group got the same score.
    uint64_t runs = counters.runs.load() - runsBefore;
    EXPECT_LT(runs, 8u);
    for (const auto &scores : scoresBySeed) {
        ASSERT_FALSE(scores.empty());
        for (double score : scores)
            EXPECT_EQ(score, scores.front());
    }
}

TEST(ServeServer, SeedInsensitiveWorkloadsCoalesceWholeBatches)
{
    FakeCounters counters;
    serve::Server server(
        fakeOptions(counters, /*seed_sensitive=*/false, 5));

    server.call("Fake", 0);
    uint64_t runsBefore = counters.runs.load();
    uint64_t reseedsBefore = counters.reseeds.load();

    std::vector<std::future<serve::Response>> responses;
    for (uint64_t i = 0; i < 8; i++)
        responses.push_back(submitFake(server, i));
    for (auto &response : responses)
        EXPECT_EQ(response.get().status, serve::RequestStatus::Ok);

    // Eight distinct seeds, but the workload ignores them: they
    // coalesce onto far fewer runs and never trigger a reseed.
    EXPECT_LT(counters.runs.load() - runsBefore, 8u);
    EXPECT_EQ(counters.reseeds.load(), reseedsBefore);
}

TEST(ServeServer, SequentialCallsRunAloneConcurrentDuplicatesShare)
{
    FakeCounters counters;
    serve::Server server(fakeOptions(counters, true, 5));

    // Each call's flight has ended before the next call starts, so
    // every call runs on its own.
    const double alone = server.call("Fake", 3).score;
    for (int i = 1; i < 6; i++)
        EXPECT_EQ(server.call("Fake", 3).score, alone);
    EXPECT_EQ(counters.runs.load(), 6u);
    EXPECT_DOUBLE_EQ(
        server.metrics().workload("Fake").shareFactor(), 1.0);

    // Concurrent duplicates join the first one's flight and share its
    // run — with the same score as the runs above.
    std::vector<std::future<serve::Response>> shared;
    for (int i = 0; i < 6; i++)
        shared.push_back(submitFake(server, 3));
    for (auto &response : shared)
        EXPECT_EQ(response.get().score, alone);
    EXPECT_LT(counters.runs.load(), 12u);
}

TEST(ServeServer, ShutdownDrainsAndThenRejects)
{
    FakeCounters counters;
    serve::Server server(fakeOptions(counters, true, 2));

    std::atomic<int> completions{0};
    for (uint64_t i = 0; i < 10; i++)
        ASSERT_EQ(server.submit("Fake", i,
                                [&](const serve::Response &response) {
                                    EXPECT_EQ(
                                        response.status,
                                        serve::RequestStatus::Ok);
                                    completions.fetch_add(1);
                                }),
                  serve::RequestStatus::Ok);
    server.shutdown();
    EXPECT_EQ(completions.load(), 10);

    serve::Response late = server.call("Fake", 1);
    EXPECT_EQ(late.status, serve::RequestStatus::RejectedShutdown);
    // shutdown() is idempotent (the destructor calls it again).
    server.shutdown();
}

TEST(ServeServer, OfferedLoadCountsRejectionsSeparately)
{
    // Regression: rejected requests must not dilute throughput math.
    // `offered` counts every submit() (admitted + rejected) while
    // `completed` only counts Ok finishes, so acceptance and goodput
    // denominators stay honest under backpressure.
    FakeCounters counters;
    auto options = fakeOptions(counters, true, 50);
    options.queueCapacity = 2;
    serve::Server server(std::move(options));

    std::atomic<int> completions{0};
    auto callback = [&](const serve::Response &) {
        completions.fetch_add(1);
    };
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    for (uint64_t i = 0; i < 10; i++) {
        if (server.submit("Fake", i, callback) ==
            serve::RequestStatus::Ok)
            admitted++;
        else
            rejected++;
    }
    ASSERT_GT(rejected, 0u);
    server.shutdown();

    serve::WorkloadMetrics m = server.metrics().workload("Fake");
    EXPECT_EQ(m.offered(), 10u);
    EXPECT_EQ(m.offered(), m.submitted + m.rejected());
    EXPECT_EQ(m.submitted, admitted);
    EXPECT_EQ(m.rejected(), rejected);
    EXPECT_EQ(m.completed, admitted);
    serve::WorkloadMetrics t = server.metrics().total();
    EXPECT_EQ(t.offered(), 10u);
}

TEST(ServeServer, MetricsAccountEveryOutcome)
{
    FakeCounters counters;
    serve::Server server(fakeOptions(counters, true));
    for (uint64_t i = 0; i < 5; i++)
        server.call("Fake", i);
    serve::WorkloadMetrics m = server.metrics().workload("Fake");
    EXPECT_EQ(m.submitted, 5u);
    EXPECT_EQ(m.completed, 5u);
    EXPECT_EQ(m.rejected(), 0u);
    EXPECT_EQ(m.latency.count(), 5u);
    EXPECT_GT(m.latency.p99(), 0.0);
    EXPECT_GE(m.executions, 1u);

    server.resetMetrics();
    EXPECT_EQ(server.metrics().workload("Fake").submitted, 0u);
}

/**
 * Single-flight waiter semantics, with the result cache off and on:
 * every request on a key waits with its own deadline and cancel
 * token, so one request giving up never decides another's outcome.
 * One worker whose runs take 100 ms lets requests queue.
 */
class ServeWaiters : public ::testing::TestWithParam<bool>
{
  protected:
    ServeWaiters()
    {
        auto options = fakeOptions(counters_, true, 100);
        options.resultCache = GetParam();
        server_ = std::make_unique<serve::Server>(std::move(options));
    }

    /** Blocks until @p n run() calls have started. */
    void
    awaitRuns(uint64_t n)
    {
        while (counters_.runs.load() < n)
            std::this_thread::sleep_for(1ms);
    }

    /** The score an un-served run of the fake returns for @p seed. */
    static double
    direct(uint64_t seed)
    {
        FakeCounters counters;
        FakeWorkload workload(counters, true);
        workload.setUp(serve::ServerOptions{}.modelSeed);
        workload.reseedEpisodes(seed);
        return workload.run();
    }

    FakeCounters counters_;
    std::unique_ptr<serve::Server> server_;
};

TEST_P(ServeWaiters, CanceledLeaderLeavesItsFollowerOk)
{
    auto blocker = submitFake(*server_, 1);
    awaitRuns(1); // The worker is busy: seed 2 queues behind it.
    auto cancel = std::make_shared<std::atomic<bool>>(false);
    auto leader = submitFake(*server_, 2, serve::noDeadline(), cancel);
    auto follower = submitFake(*server_, 2);
    cancel->store(true);

    EXPECT_EQ(leader.get().status, serve::RequestStatus::Canceled);
    serve::Response response = follower.get();
    EXPECT_EQ(response.status, serve::RequestStatus::Ok);
    EXPECT_EQ(response.score, direct(2));
    EXPECT_EQ(blocker.get().status, serve::RequestStatus::Ok);
    EXPECT_EQ(counters_.runs.load(), 2u);
}

TEST_P(ServeWaiters, ExpiredLeaderLeavesItsFollowerOk)
{
    auto blocker = submitFake(*server_, 1);
    awaitRuns(1); // The worker is busy: seed 2 queues behind it.
    auto leader = submitFake(*server_, 2, serve::ServeClock::now() + 20ms);
    auto follower = submitFake(*server_, 2, serve::noDeadline());

    EXPECT_EQ(leader.get().status, serve::RequestStatus::Expired);
    serve::Response response = follower.get();
    EXPECT_EQ(response.status, serve::RequestStatus::Ok);
    EXPECT_EQ(response.score, direct(2));
    EXPECT_EQ(blocker.get().status, serve::RequestStatus::Ok);
    EXPECT_EQ(counters_.runs.load(), 2u);
}

TEST_P(ServeWaiters, FollowerCanceledDuringItsLeadersRunIsCanceled)
{
    auto leader = submitFake(*server_, 2);
    awaitRuns(1); // The leader's run is under way.
    auto cancel = std::make_shared<std::atomic<bool>>(false);
    auto follower = submitFake(*server_, 2, serve::noDeadline(), cancel);
    cancel->store(true);

    EXPECT_EQ(follower.get().status, serve::RequestStatus::Canceled);
    serve::Response response = leader.get();
    EXPECT_EQ(response.status, serve::RequestStatus::Ok);
    EXPECT_EQ(response.score, direct(2));
}

INSTANTIATE_TEST_SUITE_P(Cache, ServeWaiters, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool> &info) {
                             return info.param ? "CacheOn" : "CacheOff";
                         });

} // namespace
