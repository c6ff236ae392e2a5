/** @file Tests for the wear-leveling substrate. */

#include <gtest/gtest.h>

#include <set>

#include "sim/experiment.hh"
#include "wear/lifetime.hh"
#include "wear/start_gap.hh"

namespace ladder
{
namespace
{

TEST(StartGap, RemapIsInjectiveOverRegion)
{
    const std::uint64_t lines = 64;
    StartGapRemapper remap(0, lines, 4);
    // Drive many gap movements and check injectivity each epoch.
    for (int step = 0; step < 200; ++step) {
        std::set<Addr> seen;
        for (std::uint64_t l = 0; l < lines; ++l) {
            Addr phys = remap.remap(l * lineBytes);
            EXPECT_LT(phys, (lines + 1) * lineBytes);
            EXPECT_TRUE(seen.insert(phys).second)
                << "collision at step " << step << " line " << l;
        }
        remap.noteDataWrite(0);
        remap.noteDataWrite(0);
        remap.noteDataWrite(0);
        remap.noteDataWrite(0);
        remap.collectMoves();
    }
}

TEST(StartGap, GapNeverMapped)
{
    const std::uint64_t lines = 16;
    StartGapRemapper remap(0, lines, 1);
    for (int step = 0; step < 60; ++step) {
        Addr gapAddr = remap.gap() * lineBytes;
        for (std::uint64_t l = 0; l < lines; ++l)
            EXPECT_NE(remap.remap(l * lineBytes), gapAddr);
        remap.noteDataWrite(0);
        remap.collectMoves();
    }
}

TEST(StartGap, MovesAtConfiguredPeriod)
{
    StartGapRemapper remap(0, 32, 10);
    for (int i = 0; i < 9; ++i)
        remap.noteDataWrite(0);
    EXPECT_TRUE(remap.collectMoves().empty());
    remap.noteDataWrite(0);
    auto moves = remap.collectMoves();
    ASSERT_EQ(moves.size(), 1u);
    // The displaced line moves into the old gap slot.
    EXPECT_EQ(moves[0].to, remap.gap() * lineBytes + lineBytes);
}

TEST(StartGap, FullRevolutionAdvancesStart)
{
    const std::uint64_t lines = 8;
    StartGapRemapper remap(0, lines, 1);
    std::uint64_t start0 = remap.start();
    for (std::uint64_t i = 0; i <= lines; ++i) {
        remap.noteDataWrite(0);
        remap.collectMoves();
    }
    EXPECT_EQ(remap.start(), start0 + 1);
}

TEST(StartGap, OutsideRegionUntouched)
{
    StartGapRemapper remap(4096, 16, 4);
    EXPECT_EQ(remap.remap(0), 0u);
    EXPECT_EQ(remap.remap(100 * lineBytes * 1024), 6553600u);
}

TEST(StartGap, RotationMovesHotLineAcrossSlots)
{
    const std::uint64_t lines = 8;
    StartGapRemapper remap(0, lines, 1);
    std::set<Addr> physSeen;
    for (int i = 0; i < 2000; ++i) {
        physSeen.insert(remap.remap(0)); // logical line 0
        remap.noteDataWrite(0);
        remap.collectMoves();
    }
    // Logical line 0 visits every physical slot.
    EXPECT_EQ(physSeen.size(), lines + 1);
}

TEST(Lifetime, LeveledBeatsUnleveledForSkewedWrites)
{
    std::unordered_map<std::uint64_t, std::uint32_t> writes;
    writes[0] = 100'000; // one very hot page
    for (std::uint64_t p = 1; p < 100; ++p)
        writes[p] = 100;
    LifetimeEstimate est = estimateLifetime(writes, 1.0);
    EXPECT_GT(est.unevenness, 10.0);
    EXPECT_GT(est.leveledYears, est.unleveledYears);
}

TEST(Lifetime, ProportionalToWriteRate)
{
    std::unordered_map<std::uint64_t, std::uint32_t> writes;
    for (std::uint64_t p = 0; p < 64; ++p)
        writes[p] = 1000;
    LifetimeEstimate slow = estimateLifetime(writes, 2.0);
    LifetimeEstimate fast = estimateLifetime(writes, 1.0);
    EXPECT_NEAR(slow.leveledYears / fast.leveledYears, 2.0, 1e-9);
}

TEST(Lifetime, ExtraWritesCostLifetime)
{
    // Paper §6.4: LADDER's ~3% extra writes cost ~2.9% lifetime under
    // leveling.
    std::unordered_map<std::uint64_t, std::uint32_t> base, ladder;
    for (std::uint64_t p = 0; p < 128; ++p) {
        base[p] = 1000;
        ladder[p] = 1030;
    }
    LifetimeEstimate b = estimateLifetime(base, 1.0);
    LifetimeEstimate l = estimateLifetime(ladder, 1.0);
    EXPECT_NEAR(l.leveledYears / b.leveledYears, 1.0 / 1.03, 1e-3);
}

TEST(WearIntegration, StartGapPreservesSystemCorrectness)
{
    // Run a short timed simulation with Start-Gap installed and check
    // it completes with sane traffic (content integrity is enforced
    // by internal assertions and the read path).
    ExperimentConfig cfg;
    cfg.warmupInstr = 60'000;
    cfg.measureInstr = 30'000;
    cfg.cacheScale = 1.0 / 16.0;
    SystemConfig sys =
        makeSystemConfig(SchemeKind::LadderEst, "astar", cfg);
    System system(sys);
    // Level the first half of the data region.
    AddressMap map(sys.geometry);
    StartGapRemapper remap(0, map.totalPages() * 64 / 4, 20);
    system.setRemapper(&remap);
    SimResult r = system.run(cfg.warmupInstr, cfg.measureInstr);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.dataWrites, 0u);
    EXPECT_GT(remap.gapMoves(), 0u);
}

TEST(WearIntegration, StartGapRunLevelsTheDataRegion)
{
    // Unleveled, the shared Start-Gap run is runOne's run plus the
    // merged page write counts; leveled, it injects gap moves over the
    // System's data pages.
    ExperimentConfig cfg;
    cfg.warmupInstr = 60'000;
    cfg.measureInstr = 30'000;
    cfg.cacheScale = 1.0 / 16.0;
    cfg.wear.startGapPsi = 20;
    WearRun plain =
        runStartGap(SchemeKind::LadderEst, "astar", cfg, false);
    SimResult one = runOne(SchemeKind::LadderEst, "astar", cfg);
    EXPECT_EQ(plain.result.dataWrites, one.dataWrites);
    EXPECT_EQ(plain.result.elapsedNs, one.elapsedNs);
    EXPECT_EQ(plain.gapMoves, 0u);
    std::uint64_t pageWrites = 0;
    for (const auto &entry : plain.pageWrites)
        pageWrites += entry.second;
    EXPECT_GT(pageWrites, 0u);

    WearRun leveled =
        runStartGap(SchemeKind::LadderEst, "astar", cfg, true);
    EXPECT_GT(leveled.gapMoves, 0u);
    EXPECT_GT(leveled.result.dataWrites, 0u);
    EXPECT_EQ(leveled.dataPages, plain.dataPages);
    SystemConfig sys = makeSystemConfig(SchemeKind::LadderEst, "astar", cfg);
    EXPECT_EQ(plain.dataPages,
              static_cast<std::uint64_t>(
                  AddressMap(sys.geometry).totalPages() *
                  sys.dataPageFraction));
}

} // namespace
} // namespace ladder
