/**
 * @file
 * Determinism-under-concurrency integration tests on real workloads.
 *
 * The serving determinism contract: a request with a fixed seed
 * returns the same score no matter how it was served — one replica
 * or many, run on its own or shared with concurrent duplicates,
 * whatever the arrival order. These tests drive real (serve-preset)
 * workloads through servers at those extremes and require
 * byte-identical scores, including against a direct un-served
 * execution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>
#include <vector>

#include "serve/presets.hh"
#include "serve/server.hh"
#include "util/threadpool.hh"
#include "workloads/register.hh"

namespace
{

using namespace nsbench;

class ServeDeterminism : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workloads::registerAllWorkloads();
    }

    static serve::ServerOptions
    serverOptions(const std::string &workload, int workers)
    {
        serve::ServerOptions options;
        options.workloads = {workload};
        options.workers = workers;
        options.factory = serve::serveFactory;
        return options;
    }

    /**
     * Serves @p seeds as one burst of concurrent submits, so
     * duplicates share flights, and returns seed -> score. Stores the
     * server's run() count in @p executions when given.
     */
    static std::map<uint64_t, double>
    scoresVia(serve::ServerOptions options,
              const std::vector<uint64_t> &seeds,
              uint64_t *executions = nullptr)
    {
        serve::Server server(std::move(options));
        const std::string workload = server.workloads().front();
        std::map<uint64_t, double> scores;
        std::mutex mu;
        std::condition_variable cv;
        size_t outstanding = seeds.size();
        for (uint64_t seed : seeds) {
            serve::RequestStatus status = server.submit(
                workload, seed,
                [&, seed](const serve::Response &response) {
                    std::lock_guard<std::mutex> lock(mu);
                    EXPECT_EQ(response.status,
                              serve::RequestStatus::Ok);
                    auto [it, inserted] =
                        scores.emplace(seed, response.score);
                    if (!inserted) {
                        EXPECT_EQ(it->second, response.score);
                    }
                    if (--outstanding == 0)
                        cv.notify_all();
                });
            EXPECT_EQ(status, serve::RequestStatus::Ok);
        }
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return outstanding == 0; });
        if (executions)
            *executions = server.metrics().total().executions;
        return scores;
    }
};

TEST_F(ServeDeterminism, ReplicaCountDoesNotChangeScores)
{
    const std::vector<uint64_t> seeds = {1, 2, 3, 4, 1, 2, 3, 4};
    auto one = scoresVia(serverOptions("ZeroC", 1), seeds);
    auto many = scoresVia(serverOptions("ZeroC", 3), seeds);
    EXPECT_EQ(one, many);
}

TEST_F(ServeDeterminism, CoalescingDoesNotChangeScores)
{
    const std::vector<uint64_t> seeds = {5, 6, 5, 6, 5, 6, 5, 6};
    // Sequential calls: every request runs on its own.
    std::map<uint64_t, double> alone;
    uint64_t aloneRuns = 0;
    {
        serve::Server server(serverOptions("ZeroC", 1));
        for (uint64_t seed : seeds) {
            serve::Response response = server.call("ZeroC", seed);
            ASSERT_EQ(response.status, serve::RequestStatus::Ok);
            auto [it, inserted] = alone.emplace(seed, response.score);
            if (!inserted) {
                EXPECT_EQ(it->second, response.score);
            }
        }
        aloneRuns = server.metrics().total().executions;
    }
    EXPECT_EQ(aloneRuns, seeds.size());

    // Concurrent duplicates: requests share their key's flight.
    uint64_t sharedRuns = 0;
    auto shared =
        scoresVia(serverOptions("ZeroC", 2), seeds, &sharedRuns);
    EXPECT_LT(sharedRuns, seeds.size());
    EXPECT_EQ(alone, shared);
}

TEST_F(ServeDeterminism, ArrivalOrderDoesNotChangeScores)
{
    std::vector<uint64_t> forward = {1, 2, 3, 4, 5, 6};
    std::vector<uint64_t> reverse(forward.rbegin(), forward.rend());
    auto options = serverOptions("ZeroC", 2);
    auto a = scoresVia(options, forward);
    auto b = scoresVia(options, reverse);
    EXPECT_EQ(a, b);
}

TEST_F(ServeDeterminism, ServedScoresMatchDirectExecution)
{
    auto served = scoresVia(serverOptions("ZeroC", 2), {7, 8, 9});

    // The same replica build, run without the server: one setUp at
    // the server's model seed, then reseed-and-run per request seed.
    serve::ServerOptions reference;
    auto replica = serve::serveFactory("ZeroC");
    replica->setUp(reference.modelSeed);
    for (uint64_t seed : {7, 8, 9}) {
        replica->reseedEpisodes(seed);
        double direct = replica->run();
        EXPECT_EQ(served.at(seed), direct)
            << "seed " << seed << " diverged from direct execution";
    }
}

TEST_F(ServeDeterminism, SeedInsensitiveWorkloadScoresAreSeedFree)
{
    auto scores = scoresVia(serverOptions("LNN", 2), {1, 2, 3, 4});
    for (const auto &[seed, score] : scores)
        EXPECT_EQ(score, scores.begin()->second);

    // And identical to an un-served run at the same model seed.
    serve::ServerOptions reference;
    auto replica = serve::serveFactory("LNN");
    replica->setUp(reference.modelSeed);
    EXPECT_EQ(scores.begin()->second, replica->run());
}

TEST_F(ServeDeterminism, PhaseSplitIsReportedPerRequest)
{
    serve::Server server(serverOptions("LNN", 1));
    serve::Response response = server.call("LNN", 1);
    ASSERT_EQ(response.status, serve::RequestStatus::Ok);
    EXPECT_GT(response.neuralSeconds + response.symbolicSeconds, 0.0);
    EXPECT_GT(response.serviceSeconds, 0.0);
    EXPECT_LE(response.neuralSeconds + response.symbolicSeconds,
              response.serviceSeconds * 1.5);
}

} // namespace
