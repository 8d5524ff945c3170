/**
 * @file
 * Pins the serving stack's report surface: the column headers of the
 * serve, resilience, network and backend tables, and the JSON keys of
 * every `--json` payload the CLI writes — in-process `serve` and
 * `loadgen`, and over loopback `serve --listen`, `route` and
 * `loadgen --connect`. Dashboards and scripts parse these names, so a
 * refactor of how the reports render may add keys but never rename or
 * drop one. Each payload must land wherever `--json` sits on the
 * command line, and must parse as JSON.
 *
 * The payloads come from the real binary (path baked in via
 * NSBENCH_CLI_PATH). The loopback processes listen on ports the
 * kernel just handed out, not on fixed ones, so parallel tests do not
 * collide.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "net/router.hh"
#include "serve/metrics.hh"

namespace
{

using namespace nsbench;

/** The CSV header line of @p table. */
std::string
header(const util::Table &table)
{
    std::ostringstream csv;
    table.printCsv(csv);
    return csv.str().substr(0, csv.str().find('\n'));
}

TEST(ReportSurface, TablesKeepTheirColumns)
{
    serve::ServerMetrics metrics;
    EXPECT_EQ(header(metrics.table()),
              "workload,done,rej,exp,runs,share,flight,hit%,sf,p50 ms,"
              "p95 ms,p99 ms,mean ms,wait ms,neural");
    EXPECT_EQ(header(metrics.resilienceTable()),
              "workload,faults,retries,retried_ok,failed,shed,soj_shed,"
              "canceled,replaced,cb_err,success%");
    EXPECT_EQ(header(metrics.netTable()),
              "conns,closed,bytes in,bytes out,frames in,frames out,"
              "malformed,bad hello");

    // Backends are dialed lazily: nothing connects to this one.
    net::RouterOptions options;
    options.backends = {"127.0.0.1:9"};
    net::Router router(options);
    EXPECT_EQ(header(router.backendTable()),
              "backend,state,inflight,forwarded,hedges,hedge wins,"
              "cancels,failovers,saturated,trips,err ewma,lat ewma");
    router.shutdown();
}

/** A fresh path for one payload file. */
std::string
jsonPath(const std::string &name)
{
    return testing::TempDir() + "report_surface_" +
           std::to_string(::getpid()) + "_" + name + ".json";
}

/** The contents of the file at @p path, which is then removed. */
std::string
consume(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::remove(path.c_str());
    return text.str();
}

/** Every `"key":` in the file at @p path (nested objects too). */
std::set<std::string>
keysOf(const std::string &path)
{
    std::string json = consume(path);
    std::set<std::string> keys;
    std::regex key("\"([A-Za-z0-9_%]+)\":");
    for (auto it = std::sregex_iterator(json.begin(), json.end(), key);
         it != std::sregex_iterator(); ++it)
        keys.insert((*it)[1]);
    return keys;
}

/**
 * Recursive-descent JSON syntax check: true when the text is exactly
 * one JSON value, up to surrounding whitespace.
 */
class JsonSyntax
{
  public:
    explicit JsonSyntax(std::string text) : text_(std::move(text)) {}

    bool
    valid()
    {
        bool ok = value();
        skipSpace();
        return ok && pos_ == text_.size();
    }

  private:
    std::string text_;
    size_t pos_ = 0;

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            pos_++;
    }

    bool
    take(char c)
    {
        skipSpace();
        if (pos_ < text_.size() && text_[pos_] == c) {
            pos_++;
            return true;
        }
        return false;
    }

    bool
    string()
    {
        if (!take('"'))
            return false;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            auto c = static_cast<unsigned char>(text_[pos_++]);
            if (c < 0x20)
                return false;
            if (c == '\\') {
                char escape = pos_ < text_.size() ? text_[pos_++] : '\0';
                if (escape == '\0' ||
                    std::strchr("\"\\/bfnrtu", escape) == nullptr)
                    return false;
            }
        }
        return take('"');
    }

    bool
    value()
    {
        skipSpace();
        if (take('{')) {
            if (take('}'))
                return true;
            do {
                skipSpace();
                if (!string() || !take(':') || !value())
                    return false;
            } while (take(','));
            return take('}');
        }
        if (take('[')) {
            if (take(']'))
                return true;
            do {
                if (!value())
                    return false;
            } while (take(','));
            return take(']');
        }
        if (pos_ < text_.size() && text_[pos_] == '"')
            return string();
        static const std::regex scalar(
            R"(true|false|null|-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?)");
        std::smatch m;
        if (!std::regex_search(
                text_.cbegin() + static_cast<std::ptrdiff_t>(pos_),
                text_.cend(), m, scalar,
                std::regex_constants::match_continuous))
            return false;
        pos_ += static_cast<size_t>(m.length(0));
        return true;
    }
};

void
expectKeys(const std::set<std::string> &keys,
           const std::vector<std::string> &expected,
           const std::string &payload)
{
    for (const std::string &key : expected)
        EXPECT_EQ(keys.count(key), 1u)
            << payload << " payload lost key \"" << key << "\"";
}

/** Runs the CLI with @p args to completion; its exit code. */
int
run(const std::string &args)
{
    std::string command =
        std::string(NSBENCH_CLI_PATH) + " " + args + " > /dev/null 2>&1";
    int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** The keys every load-generation payload shares. */
const std::vector<std::string> kLoadKeys = {
    "mode",   "submitted", "completed",    "expired",
    "failed", "rejected",  "offered_rate", "throughput"};

TEST(ReportSurface, InProcessJsonPayloadsKeepTheirKeys)
{
    std::vector<std::string> keys = kLoadKeys;
    keys.insert(keys.end(), {"p50_ms", "p95_ms", "p99_ms"});

    std::string serve = jsonPath("serve");
    ASSERT_EQ(run("serve --workloads ZeroC --clients 1 --duration 0.2 "
                  "--json " + serve),
              0);
    expectKeys(keysOf(serve), keys, "serve");

    std::string loadgen = jsonPath("loadgen");
    ASSERT_EQ(run("loadgen --workloads ZeroC --rate 50 --duration 0.2 "
                  "--json " + loadgen),
              0);
    expectKeys(keysOf(loadgen), keys, "loadgen");
}

/** A loopback port the kernel just picked and nothing listens on. */
std::string
freePort()
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    ::bind(fd, reinterpret_cast<sockaddr *>(&addr), len);
    ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len);
    ::close(fd);
    return std::to_string(ntohs(addr.sin_port));
}

/** A CLI process left running, with its stdout readable. */
struct Background
{
    FILE *pipe = nullptr;

    explicit Background(const std::string &args)
        : pipe(popen((std::string(NSBENCH_CLI_PATH) + " " + args +
                      " 2>&1")
                         .c_str(),
                     "r"))
    {
    }

    /** Waits for the first output line: "listening on ..." or
     *  "routing ...", printed once the socket is bound. */
    bool
    ready()
    {
        std::array<char, 512> line{};
        return pipe && fgets(line.data(), line.size(), pipe);
    }

    /** Drains the output and waits; the exit code. */
    int
    wait()
    {
        std::array<char, 512> buffer;
        while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
        }
        int status = pclose(pipe);
        pipe = nullptr;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }

    ~Background()
    {
        if (pipe)
            wait();
    }
};

TEST(ReportSurface, NetJsonPayloadsKeepTheirKeys)
{
    std::string listen = jsonPath("listen");
    std::string route = jsonPath("route");
    std::string remote = jsonPath("remote");

    std::string server_port = freePort();
    Background server("serve --listen 127.0.0.1:" + server_port +
                      " --workloads ZeroC --workers 1 --duration 2 "
                      "--json " + listen);
    ASSERT_TRUE(server.ready());
    std::string router_port = freePort();
    Background router("route --listen 127.0.0.1:" + router_port +
                      " --backends 127.0.0.1:" + server_port +
                      " --duration 1.5 --json " + route);
    ASSERT_TRUE(router.ready());
    EXPECT_EQ(run("loadgen --connect 127.0.0.1:" + router_port +
                  " --workloads ZeroC --rate 50 --duration 0.2 --json " +
                  remote),
              0);
    EXPECT_EQ(router.wait(), 0);
    EXPECT_EQ(server.wait(), 0);

    expectKeys(keysOf(listen),
               {"mode", "completed", "conns", "frames_in", "frames_out",
                "malformed", "canceled", "soj_shed"},
               "serve --listen");
    expectKeys(keysOf(route),
               {"mode", "completed", "forwarded", "per_backend", "shed",
                "hedges_sent", "hedges_won", "hedges_denied", "cancels",
                "backends", "endpoint", "breaker", "down", "error_rate",
                "latency_ewma_seconds", "inflight", "hedges",
                "hedge_wins", "failovers", "saturated", "trips",
                "probes"},
               "route");
    std::vector<std::string> keys = kLoadKeys;
    keys.insert(keys.end(), {"connects", "disconnects", "orphaned",
                             "cancels", "call_timeouts"});
    expectKeys(keysOf(remote), keys, "loadgen --connect");
}

TEST(ReportSurface, JsonFirstAfterSubcommandStillWritesThePayload)
{
    // `--json PATH` right after the subcommand is the spelling most
    // likely to be lost by a parser that rescans argv.
    std::string loadgen = jsonPath("first_loadgen");
    std::string listen = jsonPath("first_listen");
    std::string route = jsonPath("first_route");

    ASSERT_EQ(run("loadgen --json " + loadgen +
                  " --workloads ZeroC --rate 50 --duration 0.2"),
              0);
    std::string server_port = freePort();
    Background server("serve --json " + listen +
                      " --listen 127.0.0.1:" + server_port +
                      " --workloads ZeroC --workers 1 --duration 1");
    ASSERT_TRUE(server.ready());
    std::string router_port = freePort();
    Background router("route --json " + route + " --listen 127.0.0.1:" +
                      router_port + " --backends 127.0.0.1:" +
                      server_port + " --duration 0.3");
    ASSERT_TRUE(router.ready());
    EXPECT_EQ(router.wait(), 0);
    EXPECT_EQ(server.wait(), 0);

    for (const std::string &path : {loadgen, listen, route}) {
        std::string json = consume(path);
        EXPECT_FALSE(json.empty()) << "no payload at " << path;
        EXPECT_TRUE(JsonSyntax(json).valid())
            << path << " does not parse:\n" << json;
    }
}

} // namespace
