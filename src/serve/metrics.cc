#include "serve/metrics.hh"

#include "util/format.hh"

namespace nsbench::serve
{

const char *
statusName(RequestStatus status)
{
    switch (status) {
    case RequestStatus::Ok:
        return "ok";
    case RequestStatus::RejectedQueueFull:
        return "rejected_queue_full";
    case RequestStatus::RejectedDeadline:
        return "rejected_deadline";
    case RequestStatus::RejectedShutdown:
        return "rejected_shutdown";
    case RequestStatus::RejectedUnknownWorkload:
        return "rejected_unknown_workload";
    case RequestStatus::RejectedOverload:
        return "rejected_overload";
    case RequestStatus::Expired:
        return "expired";
    case RequestStatus::Failed:
        return "failed";
    case RequestStatus::RejectedUnreachable:
        return "rejected_unreachable";
    case RequestStatus::Canceled:
        return "canceled";
    }
    return "unknown";
}

void
ServerMetrics::recordAdmitted(const std::string &workload)
{
    std::lock_guard<std::mutex> lock(mu_);
    perWorkload_[workload].offered++;
    perWorkload_[workload].submitted++;
    total_.offered++;
    total_.submitted++;
}

void
ServerMetrics::recordRejected(const std::string &workload,
                              RequestStatus status)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto bump = [status](WorkloadMetrics &m) {
        m.offered++;
        switch (status) {
        case RequestStatus::RejectedQueueFull:
            m.rejectedQueueFull++;
            break;
        case RequestStatus::RejectedDeadline:
            m.rejectedDeadline++;
            break;
        case RequestStatus::RejectedShutdown:
            m.rejectedShutdown++;
            break;
        case RequestStatus::RejectedUnknownWorkload:
            m.rejectedUnknown++;
            break;
        case RequestStatus::RejectedOverload:
            m.rejectedOverload++;
            break;
        case RequestStatus::RejectedUnreachable:
            m.rejectedUnreachable++;
            break;
        default:
            break;
        }
    };
    bump(perWorkload_[workload]);
    bump(total_);
}

void
ServerMetrics::recordFlight(const std::string &workload,
                            size_t requests)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto add = [requests](WorkloadMetrics &m) {
        m.batches++;
        m.batchOccupancy.add(static_cast<double>(requests));
    };
    add(perWorkload_[workload]);
    add(total_);
}

void
ServerMetrics::recordExecution(const std::string &workload,
                               double serviceSeconds)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto add = [serviceSeconds](WorkloadMetrics &m) {
        m.executions++;
        m.service.add(serviceSeconds);
    };
    add(perWorkload_[workload]);
    add(total_);
}

void
ServerMetrics::recordOutcome(const std::string &workload,
                             const Response &response)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto add = [&response](WorkloadMetrics &m) {
        if (response.status == RequestStatus::Expired) {
            m.expired++;
            return;
        }
        if (response.status == RequestStatus::Canceled) {
            m.canceled++;
            return;
        }
        if (response.status == RequestStatus::Failed) {
            m.failed++;
            return;
        }
        if (isRejection(response.status))
            return; // Fanned-out leader failure; counted at record.
        m.completed++;
        // retries are counted at the attempt (recordRetry) so they
        // cover requests that later expire or fail too; here only
        // note that this completion needed at least one.
        if (response.retries > 0)
            m.retriedOk++;
        m.latency.add(response.latencySeconds);
        m.queueWait.add(response.queueSeconds);
        // Shared executions attribute their phase split once per
        // member divided by the share count, so the per-workload sums
        // stay one-profiler-pass exact.
        double share = response.shared > 0
                           ? 1.0 / static_cast<double>(response.shared)
                           : 1.0;
        m.neuralSeconds += response.neuralSeconds * share;
        m.symbolicSeconds += response.symbolicSeconds * share;
    };
    add(perWorkload_[workload]);
    add(total_);
}

void
ServerMetrics::recordWorkerFault(const std::string &workload)
{
    std::lock_guard<std::mutex> lock(mu_);
    perWorkload_[workload].workerFaults++;
    total_.workerFaults++;
}

void
ServerMetrics::recordRetry(const std::string &workload)
{
    std::lock_guard<std::mutex> lock(mu_);
    perWorkload_[workload].retries++;
    total_.retries++;
}

void
ServerMetrics::recordReplicaReplaced(const std::string &workload)
{
    std::lock_guard<std::mutex> lock(mu_);
    perWorkload_[workload].replicasReplaced++;
    total_.replicasReplaced++;
}

void
ServerMetrics::recordCallbackFailure(const std::string &workload)
{
    std::lock_guard<std::mutex> lock(mu_);
    perWorkload_[workload].callbackFailures++;
    total_.callbackFailures++;
}

void
ServerMetrics::recordSojournShed(const std::string &workload)
{
    std::lock_guard<std::mutex> lock(mu_);
    perWorkload_[workload].sojournSheds++;
    total_.sojournSheds++;
}

void
ServerMetrics::recordCacheHit(const std::string &workload)
{
    std::lock_guard<std::mutex> lock(mu_);
    perWorkload_[workload].cacheHits++;
    total_.cacheHits++;
}

void
ServerMetrics::recordCacheMiss(const std::string &workload)
{
    std::lock_guard<std::mutex> lock(mu_);
    perWorkload_[workload].cacheMisses++;
    total_.cacheMisses++;
}

void
ServerMetrics::recordCacheEvictions(const std::string &workload,
                                    uint64_t n)
{
    if (n == 0)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    perWorkload_[workload].cacheEvictions += n;
    total_.cacheEvictions += n;
}

void
ServerMetrics::recordSingleFlight(const std::string &workload,
                                  uint64_t n)
{
    if (n == 0)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    perWorkload_[workload].singleFlightShared += n;
    total_.singleFlightShared += n;
}

void
ServerMetrics::recordNetAccept()
{
    netAccepted_.fetch_add(1, std::memory_order_relaxed);
}

void
ServerMetrics::recordNetClose()
{
    netClosed_.fetch_add(1, std::memory_order_relaxed);
}

void
ServerMetrics::recordNetBytesRead(uint64_t n)
{
    netBytesRead_.fetch_add(n, std::memory_order_relaxed);
}

void
ServerMetrics::recordNetBytesWritten(uint64_t n)
{
    netBytesWritten_.fetch_add(n, std::memory_order_relaxed);
}

void
ServerMetrics::recordNetFrameIn()
{
    netFramesIn_.fetch_add(1, std::memory_order_relaxed);
}

void
ServerMetrics::recordNetFrameOut()
{
    netFramesOut_.fetch_add(1, std::memory_order_relaxed);
}

void
ServerMetrics::recordNetMalformed()
{
    netMalformed_.fetch_add(1, std::memory_order_relaxed);
}

void
ServerMetrics::recordNetHandshakeFailure()
{
    netHandshakeFailures_.fetch_add(1, std::memory_order_relaxed);
}

NetStats
ServerMetrics::netStats() const
{
    NetStats stats;
    stats.connectionsAccepted =
        netAccepted_.load(std::memory_order_relaxed);
    stats.connectionsClosed =
        netClosed_.load(std::memory_order_relaxed);
    stats.bytesRead = netBytesRead_.load(std::memory_order_relaxed);
    stats.bytesWritten =
        netBytesWritten_.load(std::memory_order_relaxed);
    stats.framesIn = netFramesIn_.load(std::memory_order_relaxed);
    stats.framesOut = netFramesOut_.load(std::memory_order_relaxed);
    stats.malformedFrames =
        netMalformed_.load(std::memory_order_relaxed);
    stats.handshakeFailures =
        netHandshakeFailures_.load(std::memory_order_relaxed);
    return stats;
}

bool
ServerMetrics::hasNetActivity() const
{
    NetStats stats = netStats();
    return stats.connectionsAccepted || stats.bytesRead ||
           stats.bytesWritten;
}

util::Table
ServerMetrics::netTable() const
{
    NetStats stats = netStats();
    util::Table table({"conns", "closed", "bytes in", "bytes out",
                       "frames in", "frames out", "malformed",
                       "bad hello"});
    table.addRow({std::to_string(stats.connectionsAccepted),
                  std::to_string(stats.connectionsClosed),
                  util::humanBytes(stats.bytesRead),
                  util::humanBytes(stats.bytesWritten),
                  std::to_string(stats.framesIn),
                  std::to_string(stats.framesOut),
                  std::to_string(stats.malformedFrames),
                  std::to_string(stats.handshakeFailures)});
    return table;
}

WorkloadMetrics
ServerMetrics::workload(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = perWorkload_.find(name);
    return it == perWorkload_.end() ? WorkloadMetrics{} : it->second;
}

WorkloadMetrics
ServerMetrics::total() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
}

std::map<std::string, WorkloadMetrics>
ServerMetrics::byWorkload() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return perWorkload_;
}

void
ServerMetrics::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    perWorkload_.clear();
    total_ = WorkloadMetrics{};
    netAccepted_.store(0, std::memory_order_relaxed);
    netClosed_.store(0, std::memory_order_relaxed);
    netBytesRead_.store(0, std::memory_order_relaxed);
    netBytesWritten_.store(0, std::memory_order_relaxed);
    netFramesIn_.store(0, std::memory_order_relaxed);
    netFramesOut_.store(0, std::memory_order_relaxed);
    netMalformed_.store(0, std::memory_order_relaxed);
    netHandshakeFailures_.store(0, std::memory_order_relaxed);
}

util::Table
ServerMetrics::table() const
{
    auto snapshot = byWorkload();
    WorkloadMetrics totals = total();

    util::Table table({"workload", "done", "rej", "exp", "runs",
                       "share", "flight", "hit%", "sf", "p50 ms",
                       "p95 ms", "p99 ms", "mean ms", "wait ms",
                       "neural"});
    auto ms = [](double seconds) {
        return util::fixedStr(seconds * 1e3, 2);
    };
    auto row = [&](const std::string &name,
                   const WorkloadMetrics &m) {
        table.addRow({name, std::to_string(m.completed),
                      std::to_string(m.rejected()),
                      std::to_string(m.expired),
                      std::to_string(m.executions),
                      util::fixedStr(m.shareFactor(), 2),
                      util::fixedStr(m.batchOccupancy.mean(), 2),
                      util::percentStr(m.cacheHitRate()),
                      std::to_string(m.singleFlightShared),
                      ms(m.latency.p50()), ms(m.latency.p95()),
                      ms(m.latency.p99()), ms(m.latency.mean()),
                      ms(m.queueWait.mean()),
                      util::percentStr(m.neuralFraction())});
    };
    for (const auto &[name, m] : snapshot)
        row(name, m);
    if (snapshot.size() > 1)
        row("TOTAL", totals);
    return table;
}

bool
ServerMetrics::hasResilienceEvents() const
{
    WorkloadMetrics totals = total();
    return totals.workerFaults || totals.retries || totals.failed ||
           totals.rejectedOverload || totals.replicasReplaced ||
           totals.callbackFailures || totals.canceled ||
           totals.sojournSheds;
}

util::Table
ServerMetrics::resilienceTable() const
{
    auto snapshot = byWorkload();
    WorkloadMetrics totals = total();

    util::Table table({"workload", "faults", "retries", "retried_ok",
                       "failed", "shed", "soj_shed",
                       "canceled", "replaced", "cb_err", "success%"});
    auto row = [&](const std::string &name,
                   const WorkloadMetrics &m) {
        table.addRow({name, std::to_string(m.workerFaults),
                      std::to_string(m.retries),
                      std::to_string(m.retriedOk),
                      std::to_string(m.failed),
                      std::to_string(m.rejectedOverload),
                      std::to_string(m.sojournSheds),
                      std::to_string(m.canceled),
                      std::to_string(m.replicasReplaced),
                      std::to_string(m.callbackFailures),
                      util::percentStr(m.successRate())});
    };
    for (const auto &[name, m] : snapshot)
        row(name, m);
    if (snapshot.size() > 1)
        row("TOTAL", totals);
    return table;
}

} // namespace nsbench::serve
