/**
 * @file
 * Load-generator tests: request accounting closes, both disciplines
 * drain fully, and the workload mix is honoured.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "fake_workload.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"
#include "util/rng.hh"

namespace
{

using namespace nsbench;
using tests::FakeCounters;
using tests::FakeWorkload;

serve::ServerOptions
fakeServer(FakeCounters &counters)
{
    serve::ServerOptions options;
    options.workloads = {"Fake"};
    options.workers = 2;
    options.factory = [&counters](const std::string &) {
        return std::make_unique<FakeWorkload>(counters,
                                              /*seed_sensitive=*/true,
                                              /*sleep_ms=*/1);
    };
    return options;
}

void
expectClosedAccounting(const serve::LoadgenReport &report)
{
    EXPECT_EQ(report.submitted, report.admitted + report.rejected);
    EXPECT_EQ(report.admitted, report.completed + report.expired);
}

TEST(ServeLoadgen, OpenLoopDrainsEveryAdmittedRequest)
{
    FakeCounters counters;
    serve::Server server(fakeServer(counters));
    serve::LoadgenOptions options;
    options.openLoop = true;
    options.rateHz = 500.0;
    options.durationSeconds = 0.3;
    serve::LoadgenReport report =
        serve::runLoadgen(server, options);

    EXPECT_GT(report.submitted, 0u);
    expectClosedAccounting(report);
    EXPECT_GT(report.throughput(), 0.0);
    EXPECT_EQ(server.metrics().workload("Fake").completed,
              report.completed);
}

TEST(ServeLoadgen, ClosedLoopDrainsEveryAdmittedRequest)
{
    FakeCounters counters;
    serve::Server server(fakeServer(counters));
    serve::LoadgenOptions options;
    options.openLoop = false;
    options.clients = 4;
    options.durationSeconds = 0.3;
    serve::LoadgenReport report =
        serve::runLoadgen(server, options);

    EXPECT_GT(report.submitted, 0u);
    expectClosedAccounting(report);
    EXPECT_EQ(report.rejected, 0u);
}

/**
 * A target that admits every request and then answers it with a
 * rejection through the callback — what a remote server's queue-full
 * verdict looks like behind net::RemoteTarget, whose submit returns
 * Ok once the frame is sent.
 */
class RejectingTarget : public serve::LoadTarget
{
  public:
    std::vector<std::string>
    servedWorkloads() const override
    {
        return {"Fake"};
    }

    serve::RequestStatus
    submit(const std::string &, uint64_t, serve::Callback done,
           serve::TimePoint) override
    {
        done(rejection());
        return serve::RequestStatus::Ok;
    }

    serve::Response
    call(const std::string &, uint64_t, serve::TimePoint) override
    {
        return rejection();
    }

  private:
    static serve::Response
    rejection()
    {
        serve::Response response;
        response.status = serve::RequestStatus::RejectedQueueFull;
        return response;
    }
};

TEST(ServeLoadgen, CallbackRejectionsCountAsRejectedInBothLoops)
{
    RejectingTarget target;
    serve::LoadgenOptions options;
    options.rateHz = 500.0;
    options.clients = 2;
    options.durationSeconds = 0.05;
    for (bool open_loop : {true, false}) {
        options.openLoop = open_loop;
        serve::LoadgenReport report = serve::runLoadgen(target, options);
        EXPECT_GT(report.submitted, 0u);
        EXPECT_EQ(report.rejected, report.submitted) << open_loop;
        EXPECT_EQ(report.admitted, 0u) << open_loop;
        EXPECT_EQ(report.expired, 0u) << open_loop;
        expectClosedAccounting(report);
    }
}

TEST(ServeLoadgen, OpenLoopOffersTheRequestedRate)
{
    // A one-microsecond mean gap puts 20,000 arrivals in a 20 ms
    // window. Every arrival before the window closes is submitted,
    // however late, so the count follows the seeded schedule, not the
    // host's speed.
    RejectingTarget target;
    serve::LoadgenOptions options;
    options.rateHz = 1e6;
    options.durationSeconds = 0.02;
    serve::LoadgenReport report = serve::runLoadgen(target, options);
    EXPECT_NEAR(static_cast<double>(report.submitted), 20000.0, 1000.0);
}

TEST(ServeLoadgen, SeedUniverseBoundsTheSeedsRequested)
{
    FakeCounters counters;
    serve::Server server(fakeServer(counters));

    serve::LoadgenOptions options;
    options.openLoop = true;
    options.rateHz = 400.0;
    options.durationSeconds = 0.25;
    options.seedUniverse = 4;
    options.zipfExponent = 1.2;
    serve::LoadgenReport report =
        serve::runLoadgen(server, options);
    EXPECT_GT(report.completed, 0u);
    // Four distinct seeds at most -> at most four distinct scores
    // (the fake's score is injective in the seed modulo 100000);
    // here we just require the run to complete cleanly.
    expectClosedAccounting(report);
}

TEST(ServeLoadgen, ZipfRankFrequenciesMatchTheExponent)
{
    // With exponent s, P(rank r) ~ r^-s, so the rank-1 : rank-k
    // frequency ratio must approach k^s. 200k draws keep the
    // sampling error well under the 25% tolerance.
    constexpr uint64_t universe = 32;
    constexpr double exponent = 1.1;
    constexpr int draws = 200000;
    serve::ZipfSeedSampler sampler(universe, exponent);
    util::Rng rng(1234);

    std::vector<uint64_t> counts(universe, 0);
    for (int i = 0; i < draws; i++) {
        uint64_t seed = sampler.sample(rng, 0);
        ASSERT_LT(seed, universe);
        counts[seed]++;
    }

    ASSERT_GT(counts[7], 0u);
    double ratio = static_cast<double>(counts[0]) /
                   static_cast<double>(counts[7]);
    double expected = std::pow(8.0, exponent);
    EXPECT_NEAR(ratio, expected, 0.25 * expected);
    // The head of the distribution is strictly rank-ordered.
    EXPECT_GT(counts[0], counts[1]);
    EXPECT_GT(counts[1], counts[3]);
    EXPECT_GT(counts[3], counts[7]);
}

TEST(ServeLoadgen, ZipfZeroExponentSamplesUniformly)
{
    constexpr uint64_t universe = 16;
    constexpr int draws = 160000;
    serve::ZipfSeedSampler sampler(universe, 0.0);
    util::Rng rng(99);

    std::vector<uint64_t> counts(universe, 0);
    for (int i = 0; i < draws; i++)
        counts[sampler.sample(rng, 0)]++;

    uint64_t lo = counts[0], hi = counts[0];
    for (uint64_t c : counts) {
        lo = std::min(lo, c);
        hi = std::max(hi, c);
    }
    EXPECT_GT(lo, 0u);
    EXPECT_LT(static_cast<double>(hi) / static_cast<double>(lo),
              1.25);
}

TEST(ServeLoadgen, ZipfEmptyUniverseReturnsTheFallbackSeed)
{
    serve::ZipfSeedSampler sampler(0, 1.1);
    util::Rng rng(7);
    EXPECT_EQ(sampler.sample(rng, 42u), 42u);
}

TEST(ServeLoadgen, HonoursExplicitWorkloadMix)
{
    FakeCounters counters_a;
    FakeCounters counters_b;
    serve::ServerOptions server_options;
    server_options.workloads = {"A", "B"};
    server_options.workers = 2;
    server_options.factory = [&](const std::string &name) {
        FakeCounters &counters =
            name == "A" ? counters_a : counters_b;
        return std::make_unique<FakeWorkload>(counters, true, 0);
    };
    serve::Server server(std::move(server_options));

    serve::LoadgenOptions options;
    options.openLoop = false;
    options.clients = 2;
    options.durationSeconds = 0.2;
    options.mix = {{"A", 1.0}};
    serve::LoadgenReport report =
        serve::runLoadgen(server, options);

    EXPECT_GT(report.completed, 0u);
    EXPECT_GT(server.metrics().workload("A").completed, 0u);
    EXPECT_EQ(server.metrics().workload("B").completed, 0u);
}

} // namespace
