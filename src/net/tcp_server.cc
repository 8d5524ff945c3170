#include "net/tcp_server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/failpoint.hh"
#include "util/logging.hh"

namespace nsbench::net
{

namespace
{

using serve::NetStats;
using util::fatal;
using util::failpoints::sites::kNetAccept;
using util::failpoints::sites::kNetRead;
using util::failpoints::sites::kNetWrite;

constexpr int kBacklog = 128; ///< listen() backlog.

/** Shutdown drain bound: how long to wait for in-flight requests to
 *  complete and write buffers to empty before closing. */
constexpr double kDrainSeconds = 5.0;

/** Binds and listens a nonblocking IPv4 socket; dies on failure. */
int
listenSocket(const FrameServerOptions &options, uint16_t *boundPort)
{
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                      0);
    if (fd < 0)
        fatal(std::string("net: socket() failed: ") +
              std::strerror(errno));

    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options.port);
    if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        fatal("net: bad bind address '" + options.host +
              "' (IPv4 dotted quad expected)");
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
        0) {
        int err = errno;
        ::close(fd);
        fatal("net: bind(" + options.host + ":" +
              std::to_string(options.port) +
              ") failed: " + std::strerror(err));
    }
    if (::listen(fd, kBacklog) < 0) {
        int err = errno;
        ::close(fd);
        fatal(std::string("net: listen() failed: ") +
              std::strerror(err));
    }

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &len) ==
        0)
        *boundPort = ntohs(bound.sin_port);
    return fd;
}

} // namespace

void
FrameServer::Session::respond(uint64_t id,
                              const serve::Response &response)
{
    FrameServer *server = server_;
    size_t bytes = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (inflight_.erase(id) == 0 || closed_)
            return;
        size_t before = out_.size();
        wire::encodeResponse(id, response, &out_);
        bytes = out_.size() - before;
    }
    server->countQueued(bytes);
    server->requestFlush(shared_from_this());
}

FrameServer::FrameServer(const FrameServerOptions &options,
                         Handler handler,
                         serve::ServerMetrics &metrics)
    : options_(options), handler_(std::move(handler)), metrics_(metrics)
{
    listenFd_ = listenSocket(options_, &port_);

    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd_ < 0)
        fatal(std::string("net: epoll_create1() failed: ") +
              std::strerror(errno));
    wakeFd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wakeFd_ < 0)
        fatal(std::string("net: eventfd() failed: ") +
              std::strerror(errno));

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listenFd_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev);
    ev.data.fd = wakeFd_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev);

    loopThread_ = std::thread([this] { loop(); });
}

FrameServer::~FrameServer()
{
    shutdown();
}

void
FrameServer::shutdown()
{
    std::call_once(shutdownOnce_, [this] {
        stopping_.store(true, std::memory_order_release);
        wake();
        if (loopThread_.joinable())
            loopThread_.join();
        if (epollFd_ >= 0)
            ::close(epollFd_);
        if (wakeFd_ >= 0)
            ::close(wakeFd_);
        epollFd_ = wakeFd_ = -1;
    });
}

void
FrameServer::wake()
{
    uint64_t one = 1;
    ssize_t n [[maybe_unused]] =
        ::write(wakeFd_, &one, sizeof(one));
}

void
FrameServer::requestFlush(const SessionPtr &session)
{
    {
        std::lock_guard<std::mutex> lock(flushMu_);
        flushQueue_.push_back(session);
    }
    wake();
}

bool
FrameServer::drained()
{
    for (auto &[fd, session] : sessions_) {
        std::lock_guard<std::mutex> lock(session->mu_);
        if (!session->inflight_.empty() ||
            session->outOffset_ < session->out_.size())
            return false;
    }
    return true;
}

void
FrameServer::loop()
{
    bool draining = false;
    std::chrono::steady_clock::time_point drainDeadline{};

    while (true) {
        if (stopping_.load(std::memory_order_acquire) && !draining) {
            draining = true;
            drainDeadline =
                std::chrono::steady_clock::now() +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(kDrainSeconds));
            if (listenFd_ >= 0) {
                ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_,
                            nullptr);
                ::close(listenFd_);
                listenFd_ = -1;
            }
        }
        if (draining) {
            drainFlushQueue();
            if (drained() ||
                std::chrono::steady_clock::now() >= drainDeadline)
                break;
        }

        epoll_event events[64];
        int n = ::epoll_wait(epollFd_, events, 64, draining ? 10 : -1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (int i = 0; i < n; ++i) {
            int fd = events[i].data.fd;
            if (fd == wakeFd_) {
                uint64_t count;
                while (::read(wakeFd_, &count, sizeof(count)) > 0) {
                }
                continue;
            }
            if (fd == listenFd_) {
                handleAccept();
                continue;
            }
            auto it = sessions_.find(fd);
            if (it == sessions_.end())
                continue;
            SessionPtr session = it->second;
            if (events[i].events & (EPOLLERR | EPOLLHUP)) {
                closeSession(session);
                continue;
            }
            if (events[i].events & EPOLLIN)
                handleReadable(session);
            // The read path may have closed the session.
            if ((events[i].events & EPOLLOUT) && sessions_.count(fd))
                handleWritable(session);
        }
        drainFlushQueue();
    }

    // Teardown: close whatever remains, flushed or not.
    std::vector<SessionPtr> remaining;
    remaining.reserve(sessions_.size());
    for (auto &[fd, session] : sessions_)
        remaining.push_back(session);
    for (const SessionPtr &session : remaining)
        closeSession(session);
}

void
FrameServer::handleAccept()
{
    while (true) {
        int fd = ::accept4(listenFd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR)
                continue;
            return;
        }
        metrics_.count(&NetStats::connectionsAccepted);
        if (NSBENCH_FAILPOINT(kNetAccept)) {
            ::close(fd);
            metrics_.count(&NetStats::connectionsClosed);
            continue;
        }
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

        SessionPtr session(new Session(fd));
        session->server_ = this;
        sessions_[fd] = session;

        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
    }
}

void
FrameServer::handleReadable(const SessionPtr &session)
{
    if (NSBENCH_FAILPOINT(kNetRead)) {
        closeSession(session);
        return;
    }
    while (true) {
        uint8_t buf[4096];
        ssize_t n = ::recv(session->fd_, buf, sizeof(buf), 0);
        if (n > 0) {
            metrics_.count(&NetStats::bytesRead, static_cast<uint64_t>(n));
            session->in_.append(buf, static_cast<size_t>(n));
            continue;
        }
        if (n == 0) {
            closeSession(session);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        closeSession(session);
        return;
    }

    // Decode every complete frame buffered so far.
    wire::Frame frame;
    while (true) {
        wire::DecodeStatus status = session->in_.next(&frame);
        if (status == wire::DecodeStatus::NeedMore)
            return;
        if (status == wire::DecodeStatus::Malformed) {
            metrics_.count(&NetStats::malformedFrames);
            closeSession(session);
            return;
        }
        handleFrame(session, frame);
        // handleFrame closes on protocol violations; stop decoding
        // the rest of a dead connection's buffer.
        if (!sessions_.count(session->fd_))
            return;
    }
}

void
FrameServer::handleFrame(const SessionPtr &session,
                         const wire::Frame &frame)
{
    if (!session->handshaken_) {
        if (frame.type != wire::FrameType::Hello ||
            frame.hello.magic != wire::kMagic ||
            frame.hello.version < wire::kMinVersion ||
            frame.hello.version > wire::kVersion) {
            metrics_.count(&NetStats::handshakeFailures);
            closeSession(session);
            return;
        }
        // Negotiate down to the client's version: the ack names the
        // version this connection speaks, and version-gated frame
        // types (Cancel) are only accepted from peers that asked for
        // a version defining them.
        session->handshaken_ = true;
        session->version_ = frame.hello.version;
        size_t bytes = 0;
        {
            std::lock_guard<std::mutex> lock(session->mu_);
            wire::HelloFrame ack;
            ack.version = session->version_;
            size_t before = session->out_.size();
            wire::encodeHelloAck(ack, &session->out_);
            bytes = session->out_.size() - before;
        }
        countQueued(bytes);
        if (!flushSession(session))
            closeSession(session);
        else
            updateWriteInterest(session);
        return;
    }

    if (frame.type == wire::FrameType::Cancel &&
        session->version_ >= 2) {
        // Advisory: set the request's token if it is still in flight,
        // never acknowledge. The canceled request still gets its
        // response, which retires it.
        metrics_.count(&NetStats::framesIn);
        std::lock_guard<std::mutex> lock(session->mu_);
        auto it = session->inflight_.find(frame.cancel.id);
        if (it != session->inflight_.end())
            it->second->store(true, std::memory_order_relaxed);
        return;
    }

    // A handshaken client may only send requests (plus Cancel on v2
    // connections), each under an id not already in flight — the
    // response is matched by id alone. Anything else is a protocol
    // violation.
    bool fresh = false;
    auto token = std::make_shared<std::atomic<bool>>(false);
    if (frame.type == wire::FrameType::Request) {
        std::lock_guard<std::mutex> lock(session->mu_);
        fresh = session->inflight_.emplace(frame.request.id, token).second;
    }
    if (!fresh) {
        metrics_.count(&NetStats::malformedFrames);
        closeSession(session);
        return;
    }

    metrics_.count(&NetStats::framesIn);
    if (stopping_.load(std::memory_order_acquire)) {
        serve::Response reject;
        reject.status = serve::RequestStatus::RejectedShutdown;
        session->respond(frame.request.id, reject);
        return;
    }
    handler_(session, frame.request, token);
}

void
FrameServer::countQueued(size_t bytes)
{
    metrics_.count(&NetStats::framesOut);
    metrics_.count(&NetStats::bytesWritten, bytes);
}

bool
FrameServer::flushSession(const SessionPtr &session)
{
    std::lock_guard<std::mutex> lock(session->mu_);
    if (session->closed_)
        return true;
    while (session->outOffset_ < session->out_.size()) {
        if (NSBENCH_FAILPOINT(kNetWrite))
            return false;
        ssize_t n = ::send(
            session->fd_, session->out_.data() + session->outOffset_,
            session->out_.size() - session->outOffset_, MSG_NOSIGNAL);
        if (n > 0) {
            session->outOffset_ += static_cast<size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return true; // Kernel buffer full; EPOLLOUT resumes us.
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
    session->out_.clear();
    session->outOffset_ = 0;
    return true;
}

void
FrameServer::updateWriteInterest(const SessionPtr &session)
{
    bool pending;
    {
        std::lock_guard<std::mutex> lock(session->mu_);
        if (session->closed_)
            return;
        pending = session->outOffset_ < session->out_.size();
    }
    epoll_event ev{};
    ev.events = EPOLLIN | (pending ? EPOLLOUT : 0u);
    ev.data.fd = session->fd_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, session->fd_, &ev);
}

void
FrameServer::handleWritable(const SessionPtr &session)
{
    if (!flushSession(session)) {
        closeSession(session);
        return;
    }
    updateWriteInterest(session);
}

void
FrameServer::drainFlushQueue()
{
    std::vector<std::weak_ptr<Session>> queue;
    {
        std::lock_guard<std::mutex> lock(flushMu_);
        queue.swap(flushQueue_);
    }
    for (const std::weak_ptr<Session> &weak : queue) {
        SessionPtr session = weak.lock();
        if (!session)
            continue;
        {
            std::lock_guard<std::mutex> lock(session->mu_);
            if (session->closed_)
                continue;
        }
        if (!flushSession(session)) {
            closeSession(session);
            continue;
        }
        updateWriteInterest(session);
    }
}

void
FrameServer::closeSession(const SessionPtr &session)
{
    if (sessions_.erase(session->fd_) == 0)
        return; // Already closed.
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, session->fd_, nullptr);
    ::close(session->fd_);
    {
        std::lock_guard<std::mutex> lock(session->mu_);
        session->closed_ = true;
        session->out_.clear();
        session->outOffset_ = 0;
    }
    metrics_.count(&NetStats::connectionsClosed);
}

TcpServer::TcpServer(serve::Server &server,
                     const FrameServerOptions &options)
    : server_(server)
{
    frames_ = std::make_unique<FrameServer>(
        options,
        [this](const FrameServer::SessionPtr &session,
               const wire::RequestFrame &request,
               const serve::CancelToken &token) {
            handle(session, request, token);
        },
        server.metrics());
}

std::string
TcpServer::json() const
{
    return "{\"mode\":\"serve_listen\"," + server_.metrics().json() +
           "}";
}

void
TcpServer::handle(const FrameServer::SessionPtr &session,
                  const wire::RequestFrame &request,
                  const serve::CancelToken &token)
{
    uint64_t id = request.id;
    auto rejectWith = [&](serve::RequestStatus status) {
        serve::Response reject;
        reject.status = status;
        session->respond(id, reject);
    };

    // This server evaluates exactly one model snapshot; a request
    // pinned to a different model seed is a request for a workload
    // this process does not serve.
    if (request.modelSeed != 0 &&
        request.modelSeed != server_.options().modelSeed) {
        server_.metrics().recordRejected(
            request.workload,
            serve::RequestStatus::RejectedUnknownWorkload);
        rejectWith(serve::RequestStatus::RejectedUnknownWorkload);
        return;
    }

    serve::TimePoint deadline = serve::noDeadline();
    if (request.deadlineUs > 0)
        deadline = serve::ServeClock::now() +
                   std::chrono::microseconds(request.deadlineUs);

    serve::RequestStatus admitted = server_.submit(
        request.workload, request.episodeSeed,
        [session, id](const serve::Response &response) {
            session->respond(id, response);
        },
        deadline, token);
    if (admitted != serve::RequestStatus::Ok)
        rejectWith(admitted);
}

} // namespace nsbench::net
