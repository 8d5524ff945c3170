#include "serve/metrics.hh"

#include "util/fields.hh"
#include "util/format.hh"

namespace nsbench::serve
{

namespace
{

using M = WorkloadMetrics;

/** One row per RequestStatus, in enum order. */
const StatusRow kStatusRows[] = {
    {"ok", &M::completed, false},
    {"rejected_queue_full", &M::rejectedQueueFull, true},
    {"rejected_deadline", &M::rejectedDeadline, true},
    {"rejected_shutdown", &M::rejectedShutdown, true},
    {"rejected_unknown_workload", &M::rejectedUnknown, true},
    {"rejected_overload", &M::rejectedOverload, true},
    {"expired", &M::expired, false},
    {"failed", &M::failed, false},
    {"rejected_unreachable", &M::rejectedUnreachable, true},
    {"canceled", &M::canceled, false},
};
static_assert(std::size(kStatusRows) ==
              static_cast<size_t>(RequestStatus::Canceled) + 1);

std::string
ms(double seconds)
{
    return util::fixedStr(seconds * 1e3, 2);
}

/** The standard serve report. Keyed fields, here and below, are the
 *  outcome totals json() carries. */
const util::Fields<M> kServeFields = {
    {"done", "completed", &M::completed},
    {"rej", nullptr, nullptr,
     [](const M &m) { return std::to_string(m.rejected()); }},
    {"exp", nullptr, &M::expired},
    {"runs", nullptr, &M::executions},
    {"share", nullptr, nullptr,
     [](const M &m) { return util::fixedStr(m.shareFactor(), 2); }},
    {"flight", nullptr, nullptr,
     [](const M &m) { return util::fixedStr(m.batchOccupancy.mean(), 2); }},
    {"hit%", nullptr, nullptr,
     [](const M &m) { return util::percentStr(m.cacheHitRate()); }},
    {"sf", nullptr, &M::singleFlightShared},
    {"p50 ms", nullptr, nullptr,
     [](const M &m) { return ms(m.latency.p50()); }},
    {"p95 ms", nullptr, nullptr,
     [](const M &m) { return ms(m.latency.p95()); }},
    {"p99 ms", nullptr, nullptr,
     [](const M &m) { return ms(m.latency.p99()); }},
    {"mean ms", nullptr, nullptr,
     [](const M &m) { return ms(m.latency.mean()); }},
    {"wait ms", nullptr, nullptr,
     [](const M &m) { return ms(m.queueWait.mean()); }},
    {"neural", nullptr, nullptr,
     [](const M &m) { return util::percentStr(m.neuralFraction()); }},
};

/** The resilience report; any nonzero counter here is an event. */
const util::Fields<M> kResilienceFields = {
    {"faults", nullptr, &M::workerFaults},
    {"retries", nullptr, &M::retries},
    {"retried_ok", nullptr, &M::retriedOk},
    {"failed", nullptr, &M::failed},
    {"shed", nullptr, &M::rejectedOverload},
    {"soj_shed", "soj_shed", &M::sojournSheds},
    {"canceled", "canceled", &M::canceled},
    {"replaced", nullptr, &M::replicasReplaced},
    {"cb_err", nullptr, &M::callbackFailures},
    {"success%", nullptr, nullptr,
     [](const M &m) { return util::percentStr(m.successRate()); }},
};

/** The network report; byte counts display human-sized. */
const util::Fields<NetStats> kNetFields = {
    {"conns", "conns", &NetStats::connectionsAccepted},
    {"closed", "closed", &NetStats::connectionsClosed},
    {"bytes in", "bytes_in", &NetStats::bytesRead,
     [](const NetStats &s) { return util::humanBytes(s.bytesRead); }},
    {"bytes out", "bytes_out", &NetStats::bytesWritten,
     [](const NetStats &s) { return util::humanBytes(s.bytesWritten); }},
    {"frames in", "frames_in", &NetStats::framesIn},
    {"frames out", "frames_out", &NetStats::framesOut},
    {"malformed", "malformed", &NetStats::malformedFrames},
    {"bad hello", "bad_hello", &NetStats::handshakeFailures},
};

/** One row per workload, plus a TOTAL row when there are several. */
util::Table
renderTable(const ServerMetrics &metrics, const util::Fields<M> &fields)
{
    auto snapshot = metrics.byWorkload();
    util::Table table(util::columns(fields, "workload"));
    for (const auto &[name, m] : snapshot)
        table.addRow(util::cells(fields, m, name));
    if (snapshot.size() > 1)
        table.addRow(util::cells(fields, metrics.total(), "TOTAL"));
    return table;
}

} // namespace

const StatusRow &
statusRow(RequestStatus status)
{
    return kStatusRows[static_cast<size_t>(status)];
}

const char *
statusName(RequestStatus status)
{
    return statusRow(status).name;
}

bool
isRejection(RequestStatus status)
{
    return statusRow(status).rejection;
}

uint64_t
WorkloadMetrics::rejected() const
{
    uint64_t sum = 0;
    for (const StatusRow &row : kStatusRows)
        if (row.rejection)
            sum += this->*row.counter;
    return sum;
}

void
ServerMetrics::count(const std::string &workload,
                     uint64_t WorkloadMetrics::*counter, uint64_t n)
{
    if (n == 0)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    perWorkload_[workload].*counter += n;
    total_.*counter += n;
}

void
ServerMetrics::count(uint64_t NetStats::*counter, uint64_t n)
{
    util::bump(net_.*counter, n);
}

void
ServerMetrics::recordRejected(const std::string &workload,
                              RequestStatus status)
{
    const StatusRow &row = statusRow(status);
    if (row.rejection)
        count(workload, row.counter);
}

void
ServerMetrics::recordFlight(const std::string &workload,
                            size_t requests)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (M *m : {&perWorkload_[workload], &total_}) {
        m->batches++;
        m->batchOccupancy.add(static_cast<double>(requests));
    }
}

void
ServerMetrics::recordExecution(const std::string &workload,
                               double serviceSeconds)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (M *m : {&perWorkload_[workload], &total_}) {
        m->executions++;
        m->service.add(serviceSeconds);
    }
}

void
ServerMetrics::recordOutcome(const std::string &workload,
                             const Response &response)
{
    const StatusRow &row = statusRow(response.status);
    if (row.rejection)
        return; // Fanned-out leader failure; counted at admission.
    // Shared executions attribute their phase split once per member
    // divided by the share count, so the per-workload sums stay
    // one-profiler-pass exact.
    double share = response.shared > 0
                       ? 1.0 / static_cast<double>(response.shared)
                       : 1.0;
    std::lock_guard<std::mutex> lock(mu_);
    for (M *m : {&perWorkload_[workload], &total_}) {
        m->*row.counter += 1;
        if (response.status != RequestStatus::Ok)
            continue;
        // retries are counted at the attempt so they cover requests
        // that later expire or fail too; here only note that this
        // completion needed at least one.
        if (response.retries > 0)
            m->retriedOk++;
        m->latency.add(response.latencySeconds);
        m->queueWait.add(response.queueSeconds);
        m->neuralSeconds += response.neuralSeconds * share;
        m->symbolicSeconds += response.symbolicSeconds * share;
    }
}

void
ServerMetrics::recordAnswer(const std::string &workload,
                            const Response &response)
{
    if (isRejection(response.status))
        recordRejected(workload, response.status);
    else
        count(workload, &WorkloadMetrics::submitted);
    recordOutcome(workload, response);
}

NetStats
ServerMetrics::netStats() const
{
    return util::snapshot(kNetFields, net_);
}

util::Table
ServerMetrics::netTable() const
{
    util::Table table(util::columns(kNetFields));
    table.addRow(util::cells(kNetFields, netStats()));
    return table;
}

std::string
ServerMetrics::json() const
{
    WorkloadMetrics totals = total();
    return util::json(kServeFields, totals) + "," +
           util::json(kResilienceFields, totals) + "," +
           util::json(kNetFields, netStats());
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
    util::zero(kNetFields, net_);
}

util::Table
ServerMetrics::table() const
{
    return renderTable(*this, kServeFields);
}

util::Table
ServerMetrics::resilienceTable() const
{
    return renderTable(*this, kResilienceFields);
}

bool
ServerMetrics::hasResilienceEvents() const
{
    WorkloadMetrics totals = total();
    for (const auto &f : kResilienceFields)
        if (f.counter && totals.*f.counter)
            return true;
    return false;
}

} // namespace nsbench::serve
