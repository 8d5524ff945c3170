/**
 * @file
 * Sharded router tests over real loopback backends: consistent-hash
 * placement is deterministic and cache-affine (the same key always
 * lands on the same backend), scores relay byte-identically, a dead
 * backend fails over to the survivors, and an all-down fleet sheds
 * with RejectedUnreachable instead of queueing.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hh"
#include "net/router.hh"
#include "net/tcp_server.hh"
#include "serve/presets.hh"
#include "serve/server.hh"
#include "util/rng.hh"
#include "workloads/register.hh"

namespace
{

using namespace nsbench;

/** One loopback backend: a serve::Server plus its TCP front end. */
struct Backend
{
    std::unique_ptr<serve::Server> server;
    std::unique_ptr<net::TcpServer> tcp;

    std::string
    endpoint() const
    {
        return "127.0.0.1:" + std::to_string(tcp->port());
    }
};

std::unique_ptr<Backend>
makeBackend(const std::vector<std::string> &workloads,
            bool result_cache = true)
{
    serve::ServerOptions options;
    options.workloads = workloads;
    options.workers = 2;
    options.resultCache = result_cache;
    options.factory = serve::serveFactory;
    auto backend = std::make_unique<Backend>();
    backend->server =
        std::make_unique<serve::Server>(std::move(options));
    backend->tcp = std::make_unique<net::TcpServer>(*backend->server);
    return backend;
}

net::RouterOptions
routerOptions(const std::vector<std::unique_ptr<Backend>> &backends)
{
    net::RouterOptions options;
    for (const auto &backend : backends)
        options.backends.push_back(backend->endpoint());
    options.breaker.openSeconds = 0.2;
    return options;
}

net::ClientOptions
clientFor(uint16_t port)
{
    net::ClientOptions options;
    options.port = port;
    options.connectAttempts = 3;
    options.backoffInitialSeconds = 0.01;
    return options;
}

class NetRouter : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        workloads::registerAllWorkloads();
    }
};

TEST_F(NetRouter, PlacementIsDeterministicAndSpreadsKeys)
{
    std::vector<std::unique_ptr<Backend>> backends;
    backends.push_back(makeBackend({"LNN"}));
    backends.push_back(makeBackend({"LNN"}));
    backends.push_back(makeBackend({"LNN"}));
    net::Router router(routerOptions(backends));

    std::map<size_t, int> population;
    for (uint64_t seed = 0; seed < 64; seed++) {
        size_t shard = router.shardOf("LNN", 0, seed);
        ASSERT_LT(shard, backends.size());
        // Same key, same shard — every time.
        EXPECT_EQ(router.shardOf("LNN", 0, seed), shard);
        population[shard]++;
    }
    // 64 keys over 3 backends with 64 virtual nodes each: every
    // backend must own a nonempty share.
    EXPECT_EQ(population.size(), backends.size());
}

TEST_F(NetRouter, TwoBackendRingSharesStayBalanced)
{
    // Placement only: no backend is started (the router's clients
    // dial lazily). Over 64 seeded port pairs, each backend of a
    // two-backend ring must own 30-70% of 4096 keys.
    util::Rng rng(20261017);
    for (int pair = 0; pair < 64; pair++) {
        auto port0 = rng.uniformInt(1024, 65535);
        auto port1 = rng.uniformInt(1024, 65535);
        if (port1 == port0)
            port1 = port0 == 65535 ? 1024 : port0 + 1;
        net::RouterOptions options;
        options.backends = {"127.0.0.1:" + std::to_string(port0),
                            "127.0.0.1:" + std::to_string(port1)};
        options.hedging = false;
        net::Router router(options);

        const int keys = 4096;
        int owned = 0;
        for (uint64_t seed = 0; seed < keys; seed++)
            owned += router.shardOf("LNN", 0, seed) == 0 ? 1 : 0;
        double share = static_cast<double>(owned) / keys;
        EXPECT_GE(share, 0.30) << "ports " << port0 << ", " << port1;
        EXPECT_LE(share, 0.70) << "ports " << port0 << ", " << port1;
    }
}

TEST_F(NetRouter, ForwardsWithCacheAffinity)
{
    std::vector<std::unique_ptr<Backend>> backends;
    backends.push_back(makeBackend({"ZeroC"}));
    backends.push_back(makeBackend({"ZeroC"}));
    net::Router router(routerOptions(backends));
    net::Client client(clientFor(router.port()));

    const std::vector<uint64_t> seeds = {1, 2, 3, 4, 5, 6, 7, 8};
    auto lap = [&] {
        std::map<uint64_t, double> scores;
        for (uint64_t seed : seeds) {
            serve::Response response = client.call("ZeroC", seed);
            EXPECT_EQ(response.status, serve::RequestStatus::Ok);
            scores[seed] = response.score;
        }
        return scores;
    };

    auto first = lap();
    std::vector<net::BackendStats> after_first =
        router.backendStats();
    auto second = lap();
    std::vector<net::BackendStats> after_second =
        router.backendStats();

    EXPECT_EQ(first, second); // Scores are stable across laps.

    uint64_t total = 0;
    for (size_t i = 0; i < after_second.size(); i++) {
        // Affinity: lap two sent each backend exactly the keys it
        // got in lap one.
        EXPECT_EQ(after_second[i].forwarded - after_first[i].forwarded,
                  after_first[i].forwarded);
        total += after_second[i].forwarded;
        EXPECT_FALSE(after_second[i].down);
    }
    EXPECT_EQ(total, seeds.size() * 2);

    // Affinity pays off as backend-local cache hits on lap two.
    uint64_t hits = 0;
    for (const auto &backend : backends)
        hits += backend->server->resultCache()->stats().hits;
    EXPECT_GE(hits, seeds.size());
}

TEST_F(NetRouter, RelayedScoresAreByteIdenticalToDirectExecution)
{
    std::vector<std::unique_ptr<Backend>> backends;
    backends.push_back(makeBackend({"ZeroC"}));
    backends.push_back(makeBackend({"ZeroC"}));
    net::Router router(routerOptions(backends));
    net::Client client(clientFor(router.port()));

    serve::ServerOptions reference;
    auto replica = serve::serveFactory("ZeroC");
    replica->setUp(reference.modelSeed);
    for (uint64_t seed : {11, 12, 13}) {
        replica->reseedEpisodes(seed);
        double direct = replica->run();
        serve::Response response = client.call("ZeroC", seed);
        ASSERT_EQ(response.status, serve::RequestStatus::Ok);
        EXPECT_EQ(std::memcmp(&response.score, &direct,
                              sizeof direct),
                  0)
            << "seed " << seed << " diverged through the router";
    }
}

TEST_F(NetRouter, FailsOverToSurvivingBackend)
{
    std::vector<std::unique_ptr<Backend>> backends;
    backends.push_back(makeBackend({"LNN"}));
    backends.push_back(makeBackend({"LNN"}));
    net::Router router(routerOptions(backends));
    net::Client client(clientFor(router.port()));

    // Placement hashes the backends' ephemeral ports, so pick keys by
    // shard: two on the backend that dies, two on the survivor. The
    // first dead-shard call may be in flight when the connection
    // drops (failed over, but one dropped connection does not open
    // the breaker); the second then dials a closed port.
    std::vector<uint64_t> dead_keys, live_keys;
    for (uint64_t seed = 0; seed < 64; seed++)
        (router.shardOf("LNN", 0, seed) == 0 ? dead_keys : live_keys)
            .push_back(seed);
    ASSERT_GE(dead_keys.size(), 2u);
    ASSERT_GE(live_keys.size(), 2u);
    const std::vector<uint64_t> keys = {dead_keys[0], live_keys[0],
                                        dead_keys[1], live_keys[1]};

    // Warm both shards up, then kill backend 0 outright.
    for (uint64_t seed : keys)
        EXPECT_EQ(client.call("LNN", seed).status,
                  serve::RequestStatus::Ok);
    backends[0]->tcp->shutdown();
    backends[0]->tcp.reset();
    backends[0]->server.reset();

    // Every key — including those placed on the dead backend — must
    // still complete via failover to the survivor.
    for (uint64_t seed : keys)
        EXPECT_EQ(client.call("LNN", seed).status,
                  serve::RequestStatus::Ok)
            << "seed " << seed << " lost to the dead backend";

    std::vector<net::BackendStats> stats = router.backendStats();
    EXPECT_TRUE(stats[0].down);
    EXPECT_GE(stats[0].downMarks, 1u);
    EXPECT_GE(stats[0].failovers, 1u);
    EXPECT_FALSE(stats[1].down);
}

TEST_F(NetRouter, RecoversAfterBackendComesBack)
{
    std::vector<std::unique_ptr<Backend>> backends;
    backends.push_back(makeBackend({"LNN"}));
    net::RouterOptions options = routerOptions(backends);
    options.breaker.openSeconds = 0.05;
    net::Router router(options);
    net::Client client(clientFor(router.port()));

    EXPECT_EQ(client.call("LNN", 1).status,
              serve::RequestStatus::Ok);

    uint16_t port = backends[0]->tcp->port();
    backends[0]->tcp->shutdown();
    backends[0]->tcp.reset();
    // Depending on who notices first this surfaces as a shed
    // (RejectedUnreachable) or a dropped in-flight request (Failed);
    // either way it must not be Ok.
    EXPECT_NE(client.call("LNN", 2).status,
              serve::RequestStatus::Ok);

    // Resurrect the backend on the same port; after the down-window
    // lapses the router's probe must find it again.
    net::FrameServerOptions listen;
    listen.port = port;
    backends[0]->tcp = std::make_unique<net::TcpServer>(
        *backends[0]->server, listen);
    serve::RequestStatus status =
        serve::RequestStatus::RejectedUnreachable;
    for (int attempt = 0; attempt < 50; attempt++) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        status = client.call("LNN", 3).status;
        if (status == serve::RequestStatus::Ok)
            break;
    }
    EXPECT_EQ(status, serve::RequestStatus::Ok);
}

TEST_F(NetRouter, ShedsWhenEveryBackendIsDown)
{
    std::vector<std::unique_ptr<Backend>> backends;
    backends.push_back(makeBackend({"LNN"}));
    backends.push_back(makeBackend({"LNN"}));
    net::RouterOptions options = routerOptions(backends);
    // Tear the fleet down before the router ever reaches it.
    for (auto &backend : backends) {
        backend->tcp->shutdown();
        backend->tcp.reset();
        backend->server.reset();
    }
    net::Router router(options);
    net::Client client(clientFor(router.port()));

    serve::Response response = client.call("LNN", 1);
    EXPECT_EQ(response.status,
              serve::RequestStatus::RejectedUnreachable);
    EXPECT_GE(router.metrics().total().rejectedUnreachable, 1u);
}

TEST_F(NetRouter, RelaysBackendRejectionsVerbatim)
{
    std::vector<std::unique_ptr<Backend>> backends;
    backends.push_back(makeBackend({"LNN"}));
    net::Router router(routerOptions(backends));
    net::Client client(clientFor(router.port()));
    // The backend serves LNN only; the router forwards on hash, the
    // backend rejects, and the client sees the backend's verdict.
    serve::Response response = client.call("NoSuchWorkload", 1);
    EXPECT_EQ(response.status,
              serve::RequestStatus::RejectedUnknownWorkload);
}

} // namespace
