/** @file Full-system integration tests. */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "ctrl/trace_reader.hh"
#include "schemes/split_reset.hh"
#include "sim/config_resolve.hh"
#include "sim/experiment.hh"
#include "sim/stats_export.hh"
#include "sim/system.hh"

namespace ladder
{
namespace
{

ExperimentConfig
quickConfig()
{
    ExperimentConfig cfg;
    cfg.warmupInstr = 60'000;
    cfg.measureInstr = 40'000;
    // Shrink L2/L3 and working sets so caches reach steady state
    // (and writebacks flow) within the short windows.
    cfg.cacheScale = 1.0 / 16.0;
    return cfg;
}

class SystemScheme : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(SystemScheme, RunsToCompletion)
{
    SimResult r = runOne(GetParam(), "astar", quickConfig());
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_LT(r.ipc, 4.0);
    EXPECT_GT(r.dataReads, 100u);
    EXPECT_GT(r.dataWrites, 10u);
    EXPECT_FALSE(r.degenerate);
    EXPECT_GT(r.avgReadLatencyNs, 20.0);
    EXPECT_GE(r.avgWriteTwrNs, 29.0);
    EXPECT_LE(r.avgWriteTwrNs, 2 * 658.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SystemScheme,
    ::testing::Values(SchemeKind::Baseline, SchemeKind::Location,
                      SchemeKind::SplitReset, SchemeKind::Blp,
                      SchemeKind::LadderBasic, SchemeKind::LadderEst,
                      SchemeKind::LadderHybrid, SchemeKind::Oracle));

TEST(System, BaselineWritesAtWorstCase)
{
    SimResult r = runOne(SchemeKind::Baseline, "astar", quickConfig());
    EXPECT_NEAR(r.avgWriteTwrNs, 658.0, 1.0);
}

TEST(System, SchemesBeatBaseline)
{
    ExperimentConfig cfg = quickConfig();
    SimResult base = runOne(SchemeKind::Baseline, "lbm", cfg);
    for (SchemeKind kind :
         {SchemeKind::LadderEst, SchemeKind::LadderHybrid,
          SchemeKind::Oracle}) {
        SimResult r = runOne(kind, "lbm", cfg);
        EXPECT_GT(speedupOver(r, base), 1.0) << schemeKindName(kind);
        EXPECT_LT(r.avgWriteTwrNs, base.avgWriteTwrNs);
    }
}

TEST(System, OracleMatchesOrBeatsEveryScheme)
{
    ExperimentConfig cfg = quickConfig();
    SimResult oracle = runOne(SchemeKind::Oracle, "astar", cfg);
    for (SchemeKind kind :
         {SchemeKind::LadderBasic, SchemeKind::LadderEst,
          SchemeKind::LadderHybrid}) {
        SimResult r = runOne(kind, "astar", cfg);
        EXPECT_LE(oracle.avgWriteTwrNs, r.avgWriteTwrNs + 5.0)
            << schemeKindName(kind);
    }
}

TEST(System, DemandTrafficIndependentOfScheme)
{
    // The cache-filtered demand stream is timing-independent, so all
    // schemes see (nearly) the same demand reads and writes.
    ExperimentConfig cfg = quickConfig();
    SimResult a = runOne(SchemeKind::Baseline, "cannl", cfg);
    SimResult b = runOne(SchemeKind::LadderHybrid, "cannl", cfg);
    double readRatio = static_cast<double>(b.dataReads) /
                       static_cast<double>(a.dataReads);
    double writeRatio = static_cast<double>(b.dataWrites) /
                        static_cast<double>(a.dataWrites);
    EXPECT_NEAR(readRatio, 1.0, 0.05);
    EXPECT_NEAR(writeRatio, 1.0, 0.10);
}

TEST(System, MetadataTrafficOnlyForLadderSchemes)
{
    ExperimentConfig cfg = quickConfig();
    for (SchemeKind kind :
         {SchemeKind::Baseline, SchemeKind::SplitReset,
          SchemeKind::Blp, SchemeKind::Oracle}) {
        SimResult r = runOne(kind, "astar", cfg);
        EXPECT_EQ(r.metadataReads, 0u) << schemeKindName(kind);
        EXPECT_EQ(r.smbReads, 0u) << schemeKindName(kind);
    }
    SimResult basic = runOne(SchemeKind::LadderBasic, "astar", cfg);
    EXPECT_GT(basic.metadataReads, 0u);
    EXPECT_EQ(basic.smbReads, basic.dataWrites);
    SimResult est = runOne(SchemeKind::LadderEst, "astar", cfg);
    EXPECT_EQ(est.smbReads, 0u);
    EXPECT_LT(est.metadataReads, basic.metadataReads);
}

TEST(System, EstEstimateUpperBoundsOwnContent)
{
    SimResult est =
        runOne(SchemeKind::LadderEstNoShift, "astar", quickConfig());
    EXPECT_GE(est.estCounterDiffMean, 0.0);
    EXPECT_GT(est.estimatedCwMean, 0.0);
}

TEST(System, MixRunsFourCores)
{
    ExperimentConfig cfg = quickConfig();
    cfg.warmupInstr = 30'000;
    cfg.measureInstr = 20'000;
    SimResult r = runOne(SchemeKind::LadderHybrid, "mix-1", cfg);
    EXPECT_EQ(r.coreIpc.size(), 4u);
    for (double ipc : r.coreIpc) {
        EXPECT_GT(ipc, 0.0);
        EXPECT_LT(ipc, 4.0);
    }
}

TEST(System, DeterministicAcrossRuns)
{
    ExperimentConfig cfg = quickConfig();
    SimResult a = runOne(SchemeKind::LadderEst, "libq", cfg);
    SimResult b = runOne(SchemeKind::LadderEst, "libq", cfg);
    EXPECT_EQ(a.dataReads, b.dataReads);
    EXPECT_EQ(a.dataWrites, b.dataWrites);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_DOUBLE_EQ(a.avgReadLatencyNs, b.avgReadLatencyNs);
}

TEST(System, EnergyAccountingPositiveAndOrdered)
{
    ExperimentConfig cfg = quickConfig();
    SimResult base = runOne(SchemeKind::Baseline, "lbm", cfg);
    SimResult oracle = runOne(SchemeKind::Oracle, "lbm", cfg);
    EXPECT_GT(base.writeEnergyPj, 0.0);
    EXPECT_GT(base.readEnergyPj, 0.0);
    // Shorter writes burn less array energy.
    EXPECT_LT(oracle.writeEnergyPj, base.writeEnergyPj);
}

TEST(System, RangeShrinkReducesBenefit)
{
    ExperimentConfig cfg = quickConfig();
    SimResult base = runOne(SchemeKind::Baseline, "astar", cfg);
    SimResult nominal = runOne(SchemeKind::LadderHybrid, "astar", cfg);
    ExperimentConfig shrunk = cfg;
    shrunk.system.rangeShrink = 2.0;
    SimResult baseS = runOne(SchemeKind::Baseline, "astar", shrunk);
    SimResult hybridS =
        runOne(SchemeKind::LadderHybrid, "astar", shrunk);
    double gainNominal = speedupOver(nominal, base) - 1.0;
    double gainShrunk = speedupOver(hybridS, baseS) - 1.0;
    EXPECT_GT(gainNominal, 0.0);
    EXPECT_GT(gainShrunk, 0.0);
    EXPECT_LT(gainShrunk, gainNominal);
}

TEST(System, SplitResetDerivesFromTheSystemModel)
{
    // The half-RESET model is priced on the law the rest of the
    // system uses (shrunk here), built from the system's own crossbar,
    // and its solves are exported with the system model's.
    ExperimentConfig cfg = quickConfig();
    cfg.system.rangeShrink = 2.0;
    cfg.system.crossbar.wireOhms = 3.0;
    System sys(makeSystemConfig(SchemeKind::SplitReset, "lbm", cfg));
    const auto &split =
        dynamic_cast<const SplitResetScheme &>(sys.scheme());
    const TimingModel &full =
        cachedTimingModel(cfg.system.crossbar, 8, 2.0);
    EXPECT_EQ(split.halfModel().law, full.law);
    EXPECT_EQ(split.halfModel().params.wireOhms, 3.0);
    EXPECT_EQ(split.halfModel().params.selectedCells, 4u);
    EXPECT_EQ(sys.solverEffort().solves, 2434u);
}

TEST(System, FnwOffMeansNoFlips)
{
    // Whole-line FNW flips are rare under incremental store traffic
    // (a realistic property); with FNW disabled they must be exactly
    // zero and energy accounting must still work.
    ExperimentConfig without = quickConfig();
    without.system.controller.fnwMode = FnwMode::Off;
    SimResult b = runOne(SchemeKind::Baseline, "mcf", without);
    EXPECT_EQ(b.fnwFlips, 0.0);
    EXPECT_GT(b.writeEnergyPj, 0.0);
}

TEST(System, StatsDumpHasContent)
{
    SystemConfig cfg =
        makeSystemConfig(SchemeKind::LadderEst, "astar",
                         quickConfig());
    System system(cfg);
    system.run(20'000, 20'000);
    std::ostringstream os;
    system.dumpStats(os);
    EXPECT_NE(os.str().find("ctrl0.data_reads"), std::string::npos);
    EXPECT_NE(os.str().find("ctrl1.write_service_ns"),
              std::string::npos);
}

TEST(System, XbarRowsAloneSizesTheMat)
{
    // One key drives the whole mat: the address map places writes on
    // wordlines past the default 512, and the timing surface built
    // from the same xbar.rows covers them.
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) / "ladder_xbar_rows";
    fs::remove_all(dir);
    const std::string traceArg = "trace-out=" + dir.string();
    const char *argv[] = {"prog",          "workload=lbm",
                          "xbar.rows=1024", "warmup=100000",
                          "measure=1000000", "trace-format=bin2",
                          traceArg.c_str()};
    const ResolvedExperiment r = resolveExperiment(
        static_cast<int>(std::size(argv)), argv, ExperimentConfig{});
    const SchemeKind scheme = SchemeKind::LadderHybrid;

    const SimResult result = runOne(scheme, "lbm", r.config);
    EXPECT_GE(result.dataWrites, 1u);

    TraceReader reader;
    ASSERT_TRUE(reader.open(traceFilePath(r.config, scheme, "lbm")
                                .string()))
        << reader.error();
    CtrlTraceRecord rec;
    std::uint64_t writes = 0;
    unsigned highest = 0;
    while (reader.next(rec)) {
        if (rec.kind != CtrlTraceRecord::Kind::Write)
            continue;
        ++writes;
        highest = std::max<unsigned>(highest, rec.wordline);
    }
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_GE(writes, 1u);
    EXPECT_GT(highest, 511u);
    EXPECT_LT(highest, 1024u);
    fs::remove_all(dir);
}

} // namespace
} // namespace ladder
