/**
 * @file
 * Sharded router tests over real loopback backends: consistent-hash
 * placement is deterministic and cache-affine (the same key always
 * lands on the same backend), scores relay byte-identically, a dead
 * backend fails over to the survivors, and an all-down fleet sheds
 * with RejectedUnreachable instead of queueing. The router's own
 * accounting is checked against its backends': a relayed rejection
 * is counted as one, and `cancels` equals the Cancel frames the
 * backends received.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/client.hh"
#include "net/router.hh"
#include "net/tcp_server.hh"
#include "net/wire.hh"
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

/**
 * A backend that takes one connection, stops listening, acks the
 * handshake, reads the first request and hangs up with it in flight.
 */
class DroppingBackend
{
  public:
    DroppingBackend()
    {
        listener_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        EXPECT_EQ(::bind(listener_, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)),
                  0);
        EXPECT_EQ(::listen(listener_, 4), 0);
        socklen_t len = sizeof(addr);
        ::getsockname(listener_, reinterpret_cast<sockaddr *>(&addr),
                      &len);
        port_ = ntohs(addr.sin_port);
        thread_ = std::thread([this, listener = listener_] {
            int fd = ::accept(listener, nullptr, nullptr);
            {
                // Later dials are refused, never left hanging.
                std::lock_guard<std::mutex> lock(mu_);
                ::close(listener);
                listener_ = -1;
            }
            if (fd >= 0)
                serveOneRequest(fd);
        });
    }

    ~DroppingBackend()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (listener_ >= 0)
                ::shutdown(listener_, SHUT_RDWR); // Unblocks accept.
        }
        thread_.join();
    }

    std::string
    endpoint() const
    {
        return "127.0.0.1:" + std::to_string(port_);
    }

  private:
    static void
    serveOneRequest(int fd)
    {
        net::wire::FrameReader reader;
        net::wire::Frame frame;
        while (true) {
            uint8_t chunk[512];
            ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n <= 0)
                break;
            reader.append(chunk, static_cast<size_t>(n));
            bool requested = false;
            while (!requested &&
                   reader.next(&frame) == net::wire::DecodeStatus::Ok) {
                requested = frame.type == net::wire::FrameType::Request;
                if (frame.type == net::wire::FrameType::Hello) {
                    std::vector<uint8_t> ack;
                    net::wire::encodeHelloAck(frame.hello, &ack);
                    ::send(fd, ack.data(), ack.size(), MSG_NOSIGNAL);
                }
            }
            if (requested)
                break;
        }
        ::close(fd);
    }

    std::mutex mu_;
    int listener_ = -1;
    uint16_t port_ = 0;
    std::thread thread_;
};

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
    // The router counts the relayed verdict once, as the rejection
    // it is (before it reaches the client).
    serve::WorkloadMetrics total = router.metrics().total();
    EXPECT_EQ(total.rejectedUnknown, 1u);
    EXPECT_EQ(total.submitted, 0u);
    EXPECT_EQ(total.offered(), 1u);
}

TEST_F(NetRouter, CancelsCountOnlyFramesWritten)
{
    // Backends that reject every request at once: an answer can
    // arrive before the router has even published its attempt, and
    // then there is no Cancel frame to write — nor one to count.
    std::vector<std::unique_ptr<Backend>> backends;
    backends.push_back(makeBackend({"LNN"}));
    backends.push_back(makeBackend({"LNN"}));
    net::RouterOptions options = routerOptions(backends);
    // A burst of 400 queues up in the router; keep the latency
    // trip from opening a breaker and shedding part of it.
    options.breaker.minSamples = ~0ull;
    net::Router router(options);
    net::Client client(clientFor(router.port()));

    const size_t kRequests = 400;
    std::mutex mu;
    std::condition_variable cv;
    size_t outstanding = kRequests;
    for (uint64_t seed = 0; seed < kRequests; seed++)
        ASSERT_EQ(client.submit("NoSuchWorkload", seed,
                                [&](const serve::Response &) {
                                    std::lock_guard<std::mutex> lock(mu);

                                    if (--outstanding == 0)
                                        cv.notify_all();
                                }),
                  serve::RequestStatus::Ok);
    {
        std::unique_lock<std::mutex> lock(mu);
        ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                                [&] { return outstanding == 0; }));
    }

    // Cancel frames received = frames in minus requests forwarded. A
    // forward is counted after its send returns, which can be after
    // its answer arrived, and a Cancel frame is read after it is
    // written: let both settle.
    uint64_t forwarded = 0, counted = 0, received = 0;
    for (int i = 0; i < 200; i++) {
        std::vector<net::BackendStats> stats = router.backendStats();
        uint64_t frames_in = 0;
        forwarded = 0;
        for (size_t b = 0; b < backends.size(); b++) {
            frames_in += backends[b]->server->metrics().netStats().framesIn;
            forwarded += stats[b].forwarded;
        }
        counted = router.hedgeStats().cancelsSent;
        received = frames_in - forwarded;
        if (forwarded == kRequests && received >= counted)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(forwarded, kRequests);
    EXPECT_EQ(counted, received);
    EXPECT_EQ(router.metrics().total().rejectedUnknown, kRequests);
}

TEST_F(NetRouter, NoCancelIsCountedForADroppedAttempt)
{
    // The primary's connection drops under it, the router fails over
    // and the survivor answers. The dropped attempt is a loser with
    // no connection left to carry a Cancel frame: none is written,
    // so none may be counted.
    DroppingBackend dropping;
    std::vector<std::unique_ptr<Backend>> live;
    live.push_back(makeBackend({"LNN"}));
    net::RouterOptions options;
    options.backends = {dropping.endpoint(), live[0]->endpoint()};
    net::Router router(options);
    net::Client client(clientFor(router.port()));

    uint64_t dropped_seed = 0, live_seed = 0;
    while (router.shardOf("LNN", 0, dropped_seed) != 0)
        dropped_seed++;
    while (router.shardOf("LNN", 0, live_seed) != 1)
        live_seed++;
    EXPECT_EQ(client.call("LNN", dropped_seed).status,
              serve::RequestStatus::Ok);
    // The router sweeps losers after it relays the winner. The
    // survivor's answers complete one at a time on one connection, so
    // once a second call through it is answered, the first sweep is
    // done.
    EXPECT_EQ(client.call("LNN", live_seed).status,
              serve::RequestStatus::Ok);

    std::vector<net::BackendStats> stats = router.backendStats();
    EXPECT_EQ(stats[0].forwarded, 1u);
    EXPECT_GE(stats[0].failovers, 1u);
    EXPECT_EQ(router.hedgeStats().cancelsSent, 0u);
    // Both requests reached the survivor, and no Cancel frame did.
    EXPECT_EQ(live[0]->server->metrics().netStats().framesIn, 2u);
}

} // namespace
