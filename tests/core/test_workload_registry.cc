#include <gtest/gtest.h>

#include "core/workload.hh"

namespace
{

using namespace nsbench::core;

/** Minimal workload used to exercise the registry machinery. */
class DummyWorkload : public Workload
{
  public:
    std::string name() const override { return "Dummy"; }
    Paradigm
    paradigm() const override
    {
        return Paradigm::NeuroPipeSymbolic;
    }
    std::string taskDescription() const override { return "noop"; }
    void setUp(uint64_t seed) override { seed_ = seed; }
    void
    runStage(int, EpisodeState &state) override
    {
        state.score = 1.0;
    }
    OpGraph
    opGraph() const override
    {
        OpGraph g;
        g.addNode("only", Phase::Neural);
        return g;
    }
    uint64_t storageBytes() const override { return 0; }

  private:
    uint64_t seed_ = 0;
};

TEST(WorkloadRegistry, AddCreateRoundTrip)
{
    WorkloadRegistry reg;
    reg.add("Dummy", [] { return std::make_unique<DummyWorkload>(); });
    EXPECT_TRUE(reg.contains("Dummy"));
    EXPECT_FALSE(reg.contains("Missing"));

    auto w = reg.create("Dummy");
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->name(), "Dummy");
    w->setUp(1);
    EXPECT_DOUBLE_EQ(w->run(), 1.0);
}

TEST(WorkloadRegistry, NamesInRegistrationOrder)
{
    WorkloadRegistry reg;
    reg.add("b", [] { return std::make_unique<DummyWorkload>(); });
    reg.add("a", [] { return std::make_unique<DummyWorkload>(); });
    auto names = reg.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "b");
    EXPECT_EQ(names[1], "a");
}

TEST(WorkloadRegistryDeath, DuplicateNamePanics)
{
    WorkloadRegistry reg;
    reg.add("x", [] { return std::make_unique<DummyWorkload>(); });
    EXPECT_DEATH(
        reg.add("x", [] { return std::make_unique<DummyWorkload>(); }),
        "duplicate");
}

TEST(WorkloadRegistryDeath, UnknownNameIsFatal)
{
    WorkloadRegistry reg;
    EXPECT_EXIT(reg.create("nope"), testing::ExitedWithCode(1),
                "unknown workload");
}

} // namespace
