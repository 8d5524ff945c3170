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

#include "net/translate.hh"
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
    const std::string &host =
        options.host == "localhost" ? "127.0.0.1" : options.host;
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        ::close(fd);
        fatal("net: bad bind address '" + options.host +
              "' (IPv4 dotted quad expected)");
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) <
        0) {
        int err = errno;
        ::close(fd);
        fatal("net: bind(" + host + ":" +
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
FrameServer::Session::respond(const wire::ResponseFrame &frame)
{
    FrameServer *server = server_;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (inflight_ > 0)
            inflight_--;
        if (closed_)
            return;
        wire::encodeResponse(frame, &out_);
    }
    server->metrics_.count(&NetStats::framesOut);
    server->requestFlush(shared_from_this());
}

FrameServer::FrameServer(const FrameServerOptions &options,
                         Handler handler,
                         serve::ServerMetrics &metrics,
                         CancelHandler cancelHandler)
    : options_(options), handler_(std::move(handler)),
      cancelHandler_(std::move(cancelHandler)), metrics_(metrics)
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
        if (session->inflight_ > 0 ||
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
            session->in_.insert(session->in_.end(), buf, buf + n);
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
    size_t offset = 0;
    while (offset < session->in_.size()) {
        wire::Frame frame;
        wire::DecodeResult result =
            wire::tryDecode(session->in_.data() + offset,
                            session->in_.size() - offset, &frame);
        if (result.status == wire::DecodeStatus::NeedMore)
            break;
        if (result.status == wire::DecodeStatus::Malformed) {
            metrics_.count(&NetStats::malformedFrames);
            closeSession(session);
            return;
        }
        offset += result.consumed;
        handleFrame(session, frame);
        // handleFrame closes on protocol violations; stop decoding
        // the rest of a dead connection's buffer.
        if (!sessions_.count(session->fd_))
            return;
    }
    if (offset > 0)
        session->in_.erase(session->in_.begin(),
                           session->in_.begin() +
                               static_cast<long>(offset));
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
        {
            std::lock_guard<std::mutex> lock(session->mu_);
            wire::HelloFrame ack;
            ack.version = session->version_;
            wire::encodeHelloAck(ack, &session->out_);
        }
        metrics_.count(&NetStats::framesOut);
        if (!flushSession(session))
            closeSession(session);
        else
            updateWriteInterest(session);
        return;
    }

    if (frame.type == wire::FrameType::Cancel &&
        session->version_ >= 2) {
        // Advisory: prune if possible, never acknowledge. Does not
        // touch the inflight accounting — the canceled request still
        // gets its response.
        metrics_.count(&NetStats::framesIn);
        if (cancelHandler_)
            cancelHandler_(session, frame.cancel.id);
        return;
    }

    if (frame.type != wire::FrameType::Request) {
        // A handshaken client may only send requests (plus Cancel on
        // v2 connections); anything else is a protocol violation.
        metrics_.count(&NetStats::malformedFrames);
        closeSession(session);
        return;
    }

    metrics_.count(&NetStats::framesIn);
    {
        std::lock_guard<std::mutex> lock(session->mu_);
        session->inflight_++;
    }
    if (stopping_.load(std::memory_order_acquire)) {
        wire::ResponseFrame reject;
        reject.id = frame.request.id;
        reject.status = static_cast<uint8_t>(
            serve::RequestStatus::RejectedShutdown);
        session->respond(reject);
        return;
    }
    handler_(session, frame.request);
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
            metrics_.count(&NetStats::bytesWritten, static_cast<uint64_t>(n));
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
    : server_(server), live_(std::make_shared<LiveRequests>())
{
    frames_ = std::make_unique<FrameServer>(
        options,
        [this](const FrameServer::SessionPtr &session,
               const wire::RequestFrame &request) {
            handle(session, request);
        },
        server.metrics(),
        [this](const FrameServer::SessionPtr &session, uint64_t id) {
            handleCancel(session, id);
        });
}

std::string
TcpServer::json() const
{
    return "{\"mode\":\"serve_listen\"," + server_.metrics().json() +
           "}";
}

void
TcpServer::handleCancel(const FrameServer::SessionPtr &session,
                        uint64_t id)
{
    serve::CancelToken token;
    {
        std::lock_guard<std::mutex> lock(live_->mu);
        auto it = live_->tokens.find({session.get(), id});
        if (it != live_->tokens.end())
            token = it->second;
    }
    // Set outside the lock; the server observes it at its next check
    // of the request (dispatch, retry backoff or fan-out) and answers
    // Canceled. Already-completed requests were erased by their
    // callback, making this the advertised no-op.
    if (token)
        token->store(true, std::memory_order_relaxed);
}

void
TcpServer::handle(const FrameServer::SessionPtr &session,
                  const wire::RequestFrame &request)
{
    uint64_t id = request.id;
    auto rejectWith = [&](serve::RequestStatus status) {
        wire::ResponseFrame reject;
        reject.id = id;
        reject.status = static_cast<uint8_t>(status);
        session->respond(reject);
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

    // Register the cancel token before submitting so a Cancel frame
    // racing the submission can always find it; the completion
    // callback retires it (every admitted request completes, so no
    // entry outlives its request).
    auto key = std::make_pair(
        static_cast<const void *>(session.get()), id);
    auto token = std::make_shared<std::atomic<bool>>(false);
    std::shared_ptr<LiveRequests> live = live_;
    {
        std::lock_guard<std::mutex> lock(live->mu);
        live->tokens[key] = token;
    }
    serve::RequestStatus admitted = server_.submit(
        request.workload, request.episodeSeed,
        [live, session, id, key](const serve::Response &response) {
            {
                std::lock_guard<std::mutex> lock(live->mu);
                live->tokens.erase(key);
            }
            session->respond(toFrame(response, id));
        },
        deadline, token);
    if (admitted != serve::RequestStatus::Ok) {
        {
            std::lock_guard<std::mutex> lock(live->mu);
            live->tokens.erase(key);
        }
        rejectWith(admitted);
    }
}

} // namespace nsbench::net
