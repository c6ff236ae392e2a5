/** @file Tests for the experiment harness helpers. */

#include <gtest/gtest.h>

#include "sim/experiment.hh"

namespace ladder
{
namespace
{

TEST(Experiment, WorkloadProgramsForSingles)
{
    auto programs = workloadPrograms("astar");
    EXPECT_EQ(programs, std::vector<std::string>{"astar"});
}

TEST(Experiment, WorkloadProgramsForMixes)
{
    auto programs = workloadPrograms("mix-3");
    EXPECT_EQ(programs,
              (std::vector<std::string>{"bwaves", "zeusmp", "astar",
                                        "mcf"}));
    EXPECT_THROW(workloadPrograms("mix-99"), std::runtime_error);
}

TEST(Experiment, MakeSystemConfigWiresParameters)
{
    ExperimentConfig cfg;
    cfg.system.tableGranularity = 4;
    cfg.system.rangeShrink = 2.0;
    cfg.system.controller.fnwMode = FnwMode::Off;
    SystemConfig sys =
        makeSystemConfig(SchemeKind::LadderHybrid, "mix-2", cfg);
    EXPECT_EQ(sys.scheme, SchemeKind::LadderHybrid);
    EXPECT_EQ(sys.tableGranularity, 4u);
    EXPECT_DOUBLE_EQ(sys.rangeShrink, 2.0);
    EXPECT_EQ(sys.workloads.size(), 4u);
    EXPECT_EQ(sys.controller.fnwMode, FnwMode::Off);
}

TEST(Experiment, SpeedupOverAveragesPerCoreRatios)
{
    SimResult base, fast;
    base.coreIpc = {1.0, 2.0};
    fast.coreIpc = {2.0, 2.0};
    EXPECT_DOUBLE_EQ(speedupOver(fast, base), 1.5);
    SimResult mismatch;
    mismatch.coreIpc = {1.0};
    EXPECT_THROW(speedupOver(mismatch, base), std::logic_error);
}

TEST(Experiment, DefaultConfigSane)
{
    ExperimentConfig cfg = defaultExperimentConfig();
    EXPECT_GT(cfg.warmupInstr, 0u);
    EXPECT_GT(cfg.measureInstr, 0u);
    EXPECT_EQ(cfg.system.tableGranularity, 8u);
}

TEST(Experiment, PaperScaleRestoresFullSizes)
{
    SystemConfig cfg;
    applyPaperScale(cfg);
    EXPECT_EQ(cfg.caches.l3.sizeBytes, 32u * 1024 * 1024);
    EXPECT_EQ(cfg.caches.l2.sizeBytes, 4u * 1024 * 1024);
    EXPECT_TRUE(cfg.paperScale);
}

} // namespace
} // namespace ladder
