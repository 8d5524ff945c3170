/**
 * @file
 * Wire-protocol client: the other end of net/tcp_server.
 *
 * One Client owns one TCP connection (re-established on demand with
 * exponential backoff) and multiplexes any number of in-flight
 * requests over it, matched to callers by the request id. Two APIs,
 * mirroring serve::Server:
 *
 *  - submit(): async. Returns Ok iff the request was written to a
 *    handshaken connection, in which case the callback fires exactly
 *    once — with the server's response, or with status Failed if the
 *    connection dies first. A submit that cannot reach a server at
 *    all returns RejectedUnreachable and never calls back.
 *  - call(): blocking convenience wrapper over submit().
 *
 * Many threads may submit/call concurrently: writes serialize on a
 * send mutex (frames are small — well under one kernel buffer — so
 * a blocking sendAll holds it briefly), and a single reader thread
 * dispatches responses. This pipelines naturally: a closed-loop
 * client with N threads keeps N requests on the wire at once.
 *
 * Request ids only grow (never reused on a connection), so a server
 * session's in-flight table never sees a duplicate from this client.
 * Responses decode straight into serve::Response; the handshake and
 * the reader thread both receive through one wire::FrameReader. The
 * ClientStats counters are bumped through util::bump and read through
 * util::snapshot over one field list (client.cc).
 *
 * RemoteTarget adapts a Client to serve::LoadTarget so the stock
 * load generator drives a remote server unchanged.
 */

#ifndef NSBENCH_NET_CLIENT_HH
#define NSBENCH_NET_CLIENT_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.hh"
#include "serve/loadgen.hh"
#include "serve/request.hh"

namespace nsbench::net
{

/** A TCP endpoint: an IPv4 address and a port. */
struct Endpoint
{
    std::string host; ///< IPv4 dotted quad.
    uint16_t port = 0;
};

/**
 * The one endpoint rule for `--listen`, `--connect` and `--backends`:
 * "HOST:PORT", where HOST is an IPv4 dotted quad or `localhost` (the
 * one place that name becomes 127.0.0.1) and PORT a whole number in
 * 1..65535. Returns nullopt for anything else.
 */
std::optional<Endpoint> parseEndpoint(const std::string &spec);

/** Connection knobs. */
struct ClientOptions
{
    std::string host = "127.0.0.1"; ///< Server address (IPv4).
    uint16_t port = 0;              ///< Server port.
    /** Model seed stamped on every request; 0 -> accept the server's
     *  default (the common case). */
    uint64_t modelSeed = 0;
    /** Connect attempts before reporting unreachable; each failed
     *  attempt backs off exponentially. */
    int connectAttempts = 10;
    double backoffInitialSeconds = 0.05; ///< First retry delay.
    double backoffMaxSeconds = 1.0;      ///< Backoff ceiling.
    /** Extra wait call() allows past the request deadline before it
     *  gives up on a wedged-but-connected server and synthesizes an
     *  Expired response (the server normally expires the request
     *  itself; the grace keeps the common path server-authoritative). */
    double callGraceSeconds = 1.0;
};

/** Point-in-time transport counters (client side). */
struct ClientStats
{
    uint64_t connects = 0;       ///< Successful connect+handshakes.
    uint64_t connectFailures = 0;///< Failed connect attempts.
    uint64_t sent = 0;           ///< Request frames written.
    uint64_t received = 0;       ///< Response frames matched.
    uint64_t disconnects = 0;    ///< Connections lost or closed.
    uint64_t orphaned = 0;       ///< In-flight requests failed by a
                                 ///< disconnect.
    uint64_t cancelsSent = 0;    ///< Cancel frames written (v2 peers).
    uint64_t callTimeouts = 0;   ///< call() waits that gave up and
                                 ///< synthesized Expired locally.
};

/**
 * Encodes an absolute deadline as the wire's relative microsecond
 * budget, as seen from @p now: noDeadline() -> 0 (no deadline), an
 * already-expired deadline -> 1 (the minimum budget, so the rejection
 * is the server's), and budgets beyond the u32 range (~71.6 minutes)
 * clamp to 0xffffffff. Pure — exposed for the wire boundary tests.
 */
uint32_t encodeDeadlineUs(serve::TimePoint deadline,
                          serve::TimePoint now);

class Client
{
  public:
    explicit Client(const ClientOptions &options);
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /**
     * Ensures a handshaken connection, dialing with backoff if
     * needed. Safe to skip: submit()/call() connect lazily.
     * @return true when connected.
     */
    bool connect();

    /** True while a handshaken connection is up. */
    bool connected() const;

    /**
     * Sends one request. @p deadline crosses the wire as a relative
     * microsecond budget (noDeadline() -> none), so client and
     * server clocks need not agree.
     */
    serve::RequestStatus submit(const std::string &workload,
                                uint64_t episodeSeed,
                                serve::Callback done,
                                serve::TimePoint deadline =
                                    serve::noDeadline());

    /**
     * submit() with an explicit model seed — the router forwards
     * each request's own seed rather than a per-client constant.
     * When @p wireId is non-null and the request was written, it
     * receives the connection-level correlation id, usable with
     * cancel() (0 when nothing was sent).
     */
    serve::RequestStatus submitSeeded(const std::string &workload,
                                      uint64_t episodeSeed,
                                      uint64_t modelSeed,
                                      serve::Callback done,
                                      serve::TimePoint deadline =
                                          serve::noDeadline(),
                                      uint64_t *wireId = nullptr);

    /**
     * Best-effort abandonment of an in-flight request by the wire id
     * submitSeeded() reported. Sends a Cancel frame when the request
     * is still pending and the peer speaks protocol v2+ (no-op
     * otherwise — old servers would treat it as garbage). The
     * request's callback still fires exactly once: with the server's
     * answer, its Canceled response, or Failed on disconnect.
     * @return true when a Cancel frame was written.
     */
    bool cancel(uint64_t wireId);

    /**
     * Blocking submit; the returned status is the submit status or
     * the response's, whichever terminated the request. The wait is
     * bounded by @p deadline plus callGraceSeconds: if a connected
     * server never answers, call() reclaims the pending callback and
     * returns a synthesized Expired response instead of hanging
     * (with noDeadline() the wait is unbounded — the caller asked
     * for no time limit).
     */
    serve::Response call(const std::string &workload,
                         uint64_t episodeSeed,
                         serve::TimePoint deadline =
                             serve::noDeadline());

    /**
     * Closes the connection; every in-flight request fails with
     * status Failed. A later submit() reconnects.
     */
    void close();

    ClientStats stats() const;

  private:
    /** Dials + handshakes once; returns the fd or -1. On success
     *  @p ackedVersion receives the version the server acked. */
    int dial(uint16_t *ackedVersion);
    /** Fails all pending requests and tears the connection down. */
    void disconnect(int fd);
    void readerLoop(int fd);

    ClientOptions options_;

    mutable std::mutex mu_;    ///< Connection state + pending map.
    int fd_ = -1;              ///< -1 when disconnected.
    uint64_t generation_ = 0;  ///< Bumps on every (re)connect.
    uint16_t peerVersion_ = 0; ///< Acked version; 0 -> disconnected.
    uint64_t nextId_ = 1;
    std::map<uint64_t, serve::Callback> pending_;

    /** Serializes dialers and owns the thread handles below; never
     *  held while waiting on mu_'s owners. */
    std::mutex connectMu_;
    std::thread reader_;
    std::thread retiredReader_; ///< Previous generation, join lazily.

    std::mutex sendMu_;        ///< Serializes request writes.

    /** Bumped through util::bump, read through util::snapshot. */
    mutable ClientStats stats_;
};

/** The `loadgen --connect --json` payload: the load report plus the
 *  client's transport counters, as one JSON object. */
std::string remoteLoadgenJson(const serve::LoadgenReport &report,
                              const ClientStats &stats);

/**
 * serve::LoadTarget over a remote server. The workload list must be
 * supplied by the caller (the CLI's --workloads flag): a remote
 * client cannot introspect the server's registry, and the loadgen
 * needs the list up front to build its mix.
 */
class RemoteTarget : public serve::LoadTarget
{
  public:
    RemoteTarget(Client &client, std::vector<std::string> workloads)
        : client_(client), workloads_(std::move(workloads))
    {
    }

    std::vector<std::string>
    servedWorkloads() const override
    {
        return workloads_;
    }

    serve::RequestStatus
    submit(const std::string &workload, uint64_t seed,
           serve::Callback done, serve::TimePoint deadline) override
    {
        return client_.submit(workload, seed, std::move(done),
                              deadline);
    }

    serve::Response
    call(const std::string &workload, uint64_t seed,
         serve::TimePoint deadline) override
    {
        return client_.call(workload, seed, deadline);
    }

  private:
    Client &client_;
    std::vector<std::string> workloads_;
};

} // namespace nsbench::net

#endif // NSBENCH_NET_CLIENT_HH
