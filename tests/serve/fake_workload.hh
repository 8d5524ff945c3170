/**
 * @file
 * Deterministic fake workload for serve unit tests.
 *
 * Scores are a pure arithmetic function of (model seed, episode
 * seed), run() invocations are counted through a shared atomic, and
 * an optional per-run sleep simulates service time, so tests can
 * assert on coalescing (how many run() calls served N requests),
 * backpressure and drain behaviour without paying for real models.
 */

#ifndef NSBENCH_TESTS_SERVE_FAKE_WORKLOAD_HH
#define NSBENCH_TESTS_SERVE_FAKE_WORKLOAD_HH

#include <atomic>
#include <chrono>
#include <thread>

#include "core/workload.hh"

namespace nsbench::tests
{

/** Shared counters every replica of a fake fleet reports into. */
struct FakeCounters
{
    std::atomic<uint64_t> setUps{0};
    std::atomic<uint64_t> runs{0};
    std::atomic<uint64_t> reseeds{0};
};

class FakeWorkload : public core::Workload
{
  public:
    FakeWorkload(FakeCounters &counters, bool seed_sensitive,
                 int sleep_ms = 0)
        : counters_(counters), seedSensitive_(seed_sensitive),
          sleepMs_(sleep_ms)
    {}

    std::string name() const override { return "Fake"; }
    core::Paradigm
    paradigm() const override
    {
        return core::Paradigm::NeuroPipeSymbolic;
    }
    std::string taskDescription() const override { return "fake"; }

    void
    setUp(uint64_t seed) override
    {
        modelSeed_ = seed;
        episodeSeed_ = seed;
        counters_.setUps.fetch_add(1);
    }

    void
    reseedEpisodes(uint64_t seed) override
    {
        episodeSeed_ = seed;
        counters_.reseeds.fetch_add(1);
    }

    bool seedSensitive() const override { return seedSensitive_; }

    void
    runStage(int, core::EpisodeState &state) override
    {
        counters_.runs.fetch_add(1);
        if (sleepMs_ > 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(sleepMs_));
        // Pure in (model seed, episode seed); seed-insensitive fakes
        // ignore the episode seed like their real counterparts.
        uint64_t mix = modelSeed_ * 1000003ULL +
                       (seedSensitive_ ? episodeSeed_ * 97ULL : 0);
        state.score = static_cast<double>(mix % 100000) / 100000.0;
    }

    core::OpGraph opGraph() const override { return {}; }
    uint64_t storageBytes() const override { return 0; }

  private:
    FakeCounters &counters_;
    bool seedSensitive_;
    int sleepMs_;
    uint64_t modelSeed_ = 0;
    uint64_t episodeSeed_ = 0;
};

} // namespace nsbench::tests

#endif // NSBENCH_TESTS_SERVE_FAKE_WORKLOAD_HH
