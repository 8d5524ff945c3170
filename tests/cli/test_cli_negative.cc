/**
 * @file
 * Negative-path tests for the `nsbench run`/`serve`/`loadgen` CLI.
 *
 * Each case runs the real binary (path baked in via NSBENCH_CLI_PATH)
 * with an invalid invocation and asserts the contract the chaos tier
 * depends on: a non-zero exit code, a clear one-line message on
 * stderr, and no hang — validation happens before the server spins
 * up, so a bad flag can never leave worker threads behind.
 *
 * CliRun.* checks one positive surface of `run` that nothing else
 * reads: the `setup:` header line.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <array>
#include <cstdio>
#include <netinet/in.h>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>
#include <vector>

namespace
{

/** Captured outcome of one CLI invocation. */
struct CliResult
{
    int exitCode = -1;
    std::string output; ///< stdout + stderr, interleaved.
};

/**
 * Runs the nsbench binary with @p args (under optional environment
 * assignments @p env), capturing output and exit code.
 */
CliResult
runCli(const std::string &args, const std::string &env = "")
{
    // 2>&1 folds stderr into the pipe; the tests only assert on
    // message presence, not on which stream carried it.
    std::string command = (env.empty() ? "" : env + " ") +
                          std::string(NSBENCH_CLI_PATH) + " " +
                          args + " 2>&1";
    CliResult result;
    FILE *pipe = popen(command.c_str(), "r");
    if (pipe == nullptr)
        return result;
    std::array<char, 256> buffer;
    while (fgets(buffer.data(), buffer.size(), pipe) != nullptr)
        result.output += buffer.data();
    int status = pclose(pipe);
    if (WIFEXITED(status))
        result.exitCode = WEXITSTATUS(status);
    return result;
}

TEST(CliNegative, UnknownDeviceIsRejectedBeforeRunning)
{
    CliResult result = runCli("run LNN --device bogus");
    EXPECT_EQ(result.exitCode, 1);
    EXPECT_NE(result.output.find("unknown device"), std::string::npos)
        << result.output;
    EXPECT_EQ(result.output.find("workload:"), std::string::npos)
        << result.output;
}

TEST(CliNegative, UnknownWorkloadFailsFast)
{
    CliResult result =
        runCli("serve --workloads NoSuchThing --duration 0.1");
    EXPECT_EQ(result.exitCode, 1);
    EXPECT_NE(result.output.find("unknown workload"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, ZeroWorkersIsRejectedBeforeServing)
{
    CliResult result = runCli("serve --workers 0 --duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("--workers must be positive"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, ZeroQueueIsRejectedBeforeServing)
{
    // Both must fail before the banner: zero would reach the queue's
    // capacity panic, and a negative count would wrap through size_t
    // into an unbounded queue.
    for (const char *queue : {"0", "-1"}) {
        CliResult result = runCli(std::string("serve --workloads LNN "
                                              "--queue ") +
                                  queue + " --duration 0.1");
        EXPECT_EQ(result.exitCode, 2) << "--queue " << queue;
        EXPECT_NE(result.output.find("--queue must be positive"),
                  std::string::npos)
            << result.output;
        EXPECT_EQ(result.output.find("serving:"), std::string::npos)
            << result.output;
    }
}

TEST(CliNegative, BadMixWeightIsRejectedBeforeServing)
{
    // Each weight must parse whole as a finite number > 0: atof read
    // "abc" as 0, and a weight <= 0 reached the load generator's
    // panic after the banner.
    for (const char *weight : {"-1", "0", "abc", "2x", "inf"}) {
        CliResult result =
            runCli(std::string("loadgen --workloads LNN --mix LNN=") +
                   weight + " --duration 0.1");
        EXPECT_EQ(result.exitCode, 2) << "--mix LNN=" << weight;
        EXPECT_NE(result.output.find("--mix weight for 'LNN' must be "
                                     "a positive number"),
                  std::string::npos)
            << result.output;
        EXPECT_EQ(result.output.find("serving:"), std::string::npos)
            << result.output;
    }
}

TEST(CliNegative, MalformedNumbersAreRejected)
{
    // Every numeric flag parses its whole value: atoi and strtoull
    // read "2x" as 2 and "abc" as 0, and the command ran anyway.
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        table = {
            {"run LNN",
             {"--seed", "--runs", "--threads", "--cache-mb"}},
            {"serve --duration 0.1",
             {"--workers", "--queue", "--model-seed", "--cache-mb",
              "--rate", "--clients", "--duration", "--seed",
              "--seed-universe", "--zipf", "--deadline-ms",
              "--threads", "--retries", "--retry-backoff-us",
              "--target-sojourn-us", "--sojourn-grace-us"}},
        };
    for (const auto &[command, flags] : table) {
        for (const std::string &flag : flags) {
            for (const char *text : {"2x", "abc"}) {
                CliResult result =
                    runCli(command + " " + flag + " " + text);
                EXPECT_EQ(result.exitCode, 2) << command << " " << flag
                                              << " " << text;
                EXPECT_NE(result.output.find(flag +
                                             " must be a number, got '" +
                                             text + "'"),
                          std::string::npos)
                    << result.output;
                EXPECT_EQ(result.output.find("serving:"),
                          std::string::npos)
                    << result.output;
            }
        }
    }
    // A zero budget would leave the caches nothing to hold, and 2^44
    // MiB wraps to 0 bytes.
    for (const std::string command : {"run LNN", "serve --duration 0.1"}) {
        for (const char *mb : {"0", "17592186044416"}) {
            CliResult result = runCli(command + " --cache-mb " + mb);
            EXPECT_EQ(result.exitCode, 2) << command << " " << mb;
            EXPECT_NE(result.output.find("--cache-mb must be at least 1 "
                                         "and at most 17592186044415"),
                      std::string::npos)
                << result.output;
        }
    }
}

TEST(CliNegative, MixNameOutsideWorkloadsIsRejectedBeforeServing)
{
    // The server would reject every request as an unknown workload,
    // and the run would still exit 0.
    CliResult result = runCli(
        "loadgen --workloads LNN --mix NVSA=1 --duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("--mix names 'NVSA', which is not "
                                 "in --workloads"),
              std::string::npos)
        << result.output;
    EXPECT_EQ(result.output.find("serving:"), std::string::npos)
        << result.output;
}

TEST(CliNegative, ZeroDurationIsRejected)
{
    CliResult result = runCli("serve --duration 0");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("--duration must be positive"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, MalformedFaultSpecIsRejected)
{
    CliResult result =
        runCli("serve --faults serve.worker.run --duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("--faults:"), std::string::npos)
        << result.output;
    // A field tag must be followed by a digit: no space, no sign.
    for (const char *limit : {"x 3", "x+3"}) {
        result = runCli("serve --faults 'serve.worker.run=0.5" +
                        std::string(limit) + "' --duration 0.1");
        EXPECT_EQ(result.exitCode, 2) << limit;
        EXPECT_NE(result.output.find("'x' needs a number"),
                  std::string::npos)
            << result.output;
    }
}

TEST(CliNegative, UnknownFailpointSiteIsRejected)
{
    CliResult result =
        runCli("serve --faults not.a.site=0.5 --duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("unknown failpoint site"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, OutOfRangeProbabilityIsRejected)
{
    for (const char *probability : {"1.5", "nan", "-nan", "inf"}) {
        CliResult result = runCli("serve --faults serve.worker.run=" +
                                  std::string(probability) +
                                  " --duration 0.1");
        EXPECT_EQ(result.exitCode, 2) << probability;
        EXPECT_NE(result.output.find("probability"), std::string::npos)
            << result.output;
    }
}

TEST(CliNegative, NegativeRetriesIsRejected)
{
    CliResult result =
        runCli("serve --retries -1 --duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("--retries must be >= 0"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, ZeroClientsClosedLoopIsRejected)
{
    CliResult result =
        runCli("serve --clients 0 --duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("--clients must be positive"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, ThreadsAboveTheCapIsRejected)
{
    // 1025 would start a 1025-wide pool; the flag is refused before
    // any thread exists.
    for (const std::string command :
         {"run LNN", "serve --workloads LNN --duration 0.1",
          "loadgen --workloads LNN --duration 0.1"}) {
        CliResult result = runCli(command + " --threads 1025");
        EXPECT_EQ(result.exitCode, 2) << command;
        EXPECT_NE(result.output.find("--threads must be at most 1024"),
                  std::string::npos)
            << result.output;
        EXPECT_EQ(result.output.find("workload:"), std::string::npos)
            << result.output;
        EXPECT_EQ(result.output.find("serving:"), std::string::npos)
            << result.output;
    }
}

TEST(CliNegative, WorkersAboveTheCapIsRejected)
{
    // Each worker thread would build its own replica of every
    // served workload.
    CliResult result =
        runCli("serve --workloads LNN --workers 1025 --duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("--workers must be at most 1024"),
              std::string::npos)
        << result.output;
    EXPECT_EQ(result.output.find("serving:"), std::string::npos)
        << result.output;
}

TEST(CliNegative, ClientsAboveTheCapIsRejected)
{
    // One closed-loop client is one thread.
    for (const char *command : {"serve", "loadgen --closed"}) {
        CliResult result =
            runCli(std::string(command) +
                   " --workloads LNN --clients 1025 --duration 0.1");
        EXPECT_EQ(result.exitCode, 2) << command;
        EXPECT_NE(result.output.find("--clients must be at most 1024"),
                  std::string::npos)
            << result.output;
        EXPECT_EQ(result.output.find("serving:"), std::string::npos)
            << result.output;
    }
}

TEST(CliNegative, RateAboveTheCapIsRejected)
{
    // Above a one-microsecond mean gap the open loop only measures how
    // fast it can submit; at 1e308 every gap rounds to nothing.
    for (const char *rate : {"2e6", "1e308"}) {
        CliResult result = runCli(
            std::string("loadgen --workloads LNN --duration 0.1 --rate ") +
            rate);
        EXPECT_EQ(result.exitCode, 2) << rate;
        EXPECT_NE(result.output.find("--rate must be at most 1000000"),
                  std::string::npos)
            << result.output;
        EXPECT_EQ(result.output.find("serving:"), std::string::npos)
            << result.output;
    }
}

/** A loopback port nothing listens on right now. */
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

TEST(CliNegative, MalformedEndpointsAreRejected)
{
    // One rule for every endpoint flag: an IPv4 dotted quad or
    // localhost, then a whole port in 1..65535. Each bad spec exits 2
    // before a socket or thread exists; a short window keeps a
    // command that wrongly accepts one from hanging the test.
    const std::string route =
        "route --duration 0.1 --listen 127.0.0.1:17613 --backends ";
    const std::string loadgen =
        "loadgen --duration 0.1 --workloads LNN --connect ";
    const std::vector<std::pair<std::string, std::string>> cases = {
        {route + "127.0.0.1:7511x", "--backends"},
        {route + "127.0.0.1:+7512", "--backends"},
        {route + "127.0.0.1:7511,127.0.0.1:+7512", "--backends"},
        {route + "127.0.0.1:99999999999999999999", "--backends"},
        {route + "127.0.0.1:0", "--backends"},
        {loadgen + "10.0.0:7511", "--connect"},
        {loadgen + "127.0.0.1:7511x", "--connect"},
        {loadgen + "127.0.0.1", "--connect"},
        {"serve --duration 0.1 --listen :7511", "--listen"},
        {"serve --duration 0.1 --listen 127.0.0.1:7511x", "--listen"},
        {"serve --duration 0.1 --listen 65536", "--listen"},
    };
    for (const auto &[command, flag] : cases) {
        CliResult result = runCli(command);
        EXPECT_EQ(result.exitCode, 2) << command;
        EXPECT_NE(result.output.find(flag + " needs "), std::string::npos)
            << result.output;
        for (const char *started : {"routing ", "driving ", "listening "})
            EXPECT_EQ(result.output.find(started), std::string::npos)
                << result.output;
    }

    // localhost is the one name, for every endpoint flag.
    CliResult result = runCli("route --duration 0.1 --listen localhost:" +
                              freePort() + " --backends localhost:" +
                              freePort());
    EXPECT_EQ(result.exitCode, 0) << result.output;
    EXPECT_NE(result.output.find("routing 127.0.0.1:"), std::string::npos)
        << result.output;
}

TEST(CliNegative, ZeroDelayFaultSuffixIsRejected)
{
    // `~0` would silently disable the delay action; the parser must
    // refuse it rather than arm a no-op schedule.
    CliResult result = runCli(
        "serve --faults serve.worker.run=0.5~0 --duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("'~' delay must be positive"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, NonNumericDelayFaultSuffixIsRejected)
{
    CliResult result = runCli(
        "serve --faults serve.worker.run=0.5~fast --duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("'~' needs a number"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, OutOfRangeHedgeBudgetIsRejected)
{
    CliResult result =
        runCli("route --backends 127.0.0.1:1 --hedge-budget 1.5 "
               "--duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("--hedge-budget must be in [0, 1]"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, InvertedHedgeDelayClampIsRejected)
{
    CliResult result = runCli(
        "route --listen 127.0.0.1:0 --backends 127.0.0.1:1 "
        "--hedge-min-delay-us 5000 --hedge-max-delay-us 1000 "
        "--duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("--hedge-min-delay-us must not "
                                 "exceed"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, BreakerLatencyFactorMustExceedOne)
{
    // A factor <= 1 would trip on any backend at or below the
    // reference latency — i.e. on perfectly healthy ones.
    CliResult result = runCli(
        "route --backends 127.0.0.1:1 --breaker-latency-factor 1.0 "
        "--duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find(
                  "--breaker-latency-factor must be > 1"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, NegativeSojournTargetIsRejected)
{
    CliResult result =
        runCli("serve --target-sojourn-us -5 --duration 0.1");
    EXPECT_EQ(result.exitCode, 2);
    EXPECT_NE(result.output.find("--target-sojourn-us must be >= 0"),
              std::string::npos)
        << result.output;
}

TEST(CliNegative, MalformedEnvSpecWarnsAndServesCleanly)
{
    // A bad NSBENCH_FAILPOINTS value must not kill the binary —
    // library init warns and stays disarmed (CI sets the variable
    // fleet-wide; one typo must not fail every job).
    CliResult result =
        runCli("serve --workloads LNN --duration 0.1 --clients 1",
               "NSBENCH_FAILPOINTS=nonsense");
    EXPECT_EQ(result.exitCode, 0) << result.output;
}

/** The lines of @p output that start with "setup:". */
std::vector<std::string>
setupLines(const std::string &output)
{
    std::vector<std::string> lines;
    std::istringstream stream(output);
    std::string line;
    while (std::getline(stream, line))
        if (line.rfind("setup:", 0) == 0)
            lines.push_back(line);
    return lines;
}

/** True when @p line is "setup:" and one util::humanSeconds value. */
bool
isDuration(const std::string &line)
{
    std::istringstream fields(line);
    std::string key, unit;
    double value = -1.0;
    fields >> key >> value >> unit;
    bool known_unit = unit == "ns" || unit == "us" || unit == "ms" ||
                      unit == "s" || unit == "min";
    return fields && key == "setup:" && value >= 0.0 && known_unit &&
           (fields >> std::ws).eof();
}

TEST(CliRun, HeaderPrintsTheSetUpTimeOnce)
{
    // setUp runs before the profiler resets, so the cold build shows
    // nowhere else in the report.
    for (const char *args : {"run ZeroC --runs 1",
                             "run ZeroC --runs 2 --pipeline"}) {
        CliResult result = runCli(args);
        ASSERT_EQ(result.exitCode, 0) << args << "\n" << result.output;
        std::vector<std::string> lines = setupLines(result.output);
        ASSERT_EQ(lines.size(), 1u) << args << "\n" << result.output;
        EXPECT_TRUE(isDuration(lines[0])) << args << ": " << lines[0];
    }
    CliResult csv = runCli("run ZeroC --runs 1 --csv");
    ASSERT_EQ(csv.exitCode, 0) << csv.output;
    EXPECT_TRUE(setupLines(csv.output).empty()) << csv.output;
}

} // namespace
