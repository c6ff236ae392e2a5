/**
 * @file
 * Regression gate for the parallel sweep's determinism guarantee:
 * runMatrixParallel must produce bit-identical SimResults regardless
 * of the job count. A small (3 scheme x 4 workload) matrix is run at
 * jobs=1 (the serial path), jobs=4 and jobs=8 (heavily oversubscribed
 * on most machines, maximizing scheduling permutations) and every
 * result field is compared at the bit level. Its 4-core mix-1 cells
 * are dispatched first, so the start order differs from the
 * canonical order the results are committed in.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/json.hh"
#include "sim/experiment.hh"
#include "sim/stats_export.hh"

namespace ladder
{
namespace
{

ExperimentConfig
quickConfig(unsigned jobs)
{
    ExperimentConfig cfg;
    cfg.warmupInstr = 60'000;
    cfg.measureInstr = 40'000;
    cfg.cacheScale = 1.0 / 16.0;
    cfg.jobs = jobs;
    return cfg;
}

/** Bit-level double equality: no tolerance, and NaN == NaN. */
::testing::AssertionResult
bitsEqual(double a, double b)
{
    std::uint64_t ba, bb;
    std::memcpy(&ba, &a, sizeof(ba));
    std::memcpy(&bb, &b, sizeof(bb));
    if (ba == bb)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " and " << b << " differ in bits (0x" << std::hex
           << ba << " vs 0x" << bb << ")";
}

void
expectBitIdentical(const SimResult &a, const SimResult &b)
{
    ASSERT_EQ(a.coreIpc.size(), b.coreIpc.size());
    for (std::size_t c = 0; c < a.coreIpc.size(); ++c)
        EXPECT_TRUE(bitsEqual(a.coreIpc[c], b.coreIpc[c]))
            << "coreIpc[" << c << "]";
    EXPECT_TRUE(bitsEqual(a.ipc, b.ipc)) << "ipc";
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_TRUE(bitsEqual(a.elapsedNs, b.elapsedNs)) << "elapsedNs";
    EXPECT_TRUE(bitsEqual(a.avgReadLatencyNs, b.avgReadLatencyNs))
        << "avgReadLatencyNs";
    EXPECT_TRUE(bitsEqual(a.avgWriteServiceNs, b.avgWriteServiceNs))
        << "avgWriteServiceNs";
    EXPECT_TRUE(bitsEqual(a.avgWriteTwrNs, b.avgWriteTwrNs))
        << "avgWriteTwrNs";
    EXPECT_EQ(a.dataReads, b.dataReads);
    EXPECT_EQ(a.metadataReads, b.metadataReads);
    EXPECT_EQ(a.smbReads, b.smbReads);
    EXPECT_EQ(a.dataWrites, b.dataWrites);
    EXPECT_EQ(a.metadataWrites, b.metadataWrites);
    EXPECT_TRUE(bitsEqual(a.readEnergyPj, b.readEnergyPj))
        << "readEnergyPj";
    EXPECT_TRUE(bitsEqual(a.writeEnergyPj, b.writeEnergyPj))
        << "writeEnergyPj";
    EXPECT_TRUE(bitsEqual(a.fnwFlips, b.fnwFlips)) << "fnwFlips";
    EXPECT_TRUE(bitsEqual(a.fnwCancelled, b.fnwCancelled))
        << "fnwCancelled";
    EXPECT_TRUE(
        bitsEqual(a.estCounterDiffMean, b.estCounterDiffMean))
        << "estCounterDiffMean";
    EXPECT_TRUE(bitsEqual(a.estimatedCwMean, b.estimatedCwMean))
        << "estimatedCwMean";
    EXPECT_TRUE(bitsEqual(a.accurateCwMean, b.accurateCwMean))
        << "accurateCwMean";
    EXPECT_TRUE(bitsEqual(a.spillInsertions, b.spillInsertions))
        << "spillInsertions";
}

TEST(ParallelDeterminism, SerialAndParallelSweepsAreBitIdentical)
{
    // SplitReset exercises the shared timing-model cache with a
    // second (derived) key and LadderHybrid the estimation path — the
    // components with shared state that parallelism could have
    // perturbed.
    const std::vector<SchemeKind> schemes = {
        SchemeKind::Baseline, SchemeKind::SplitReset,
        SchemeKind::LadderHybrid};
    // mix-1 runs four programs, so with more than one job its cells
    // start before the 1-core cells canonically ahead of them.
    const std::vector<std::string> workloads = {"astar", "lbm", "mcf",
                                                "mix-1"};

    Matrix serial =
        runMatrixParallel(schemes, workloads, quickConfig(1));
    ASSERT_EQ(serial.results.size(), workloads.size() * schemes.size());
    for (unsigned jobs : {4u, 8u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        Matrix parallel =
            runMatrixParallel(schemes, workloads, quickConfig(jobs));
        ASSERT_EQ(serial.results.size(), parallel.results.size());
        for (const auto &workload : workloads) {
            for (SchemeKind kind : schemes) {
                SCOPED_TRACE(schemeKindName(kind) + " / " + workload);
                expectBitIdentical(serial.at(kind, workload),
                                   parallel.at(kind, workload));
            }
        }
    }
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(ParallelDeterminism, StatsJsonIdenticalAtAnyJobCount)
{
    // The solver block reports the counters of the models each cell
    // used, not a process-wide tally, so every stats.json is
    // byte-equal across job counts and cells sharing a process.
    const std::vector<SchemeKind> schemes = {
        SchemeKind::Baseline, SchemeKind::SplitReset,
        SchemeKind::LadderHybrid};
    const std::vector<std::string> workloads = {"lbm", "mcf", "mix-1"};
    namespace fs = std::filesystem;
    const fs::path base =
        fs::path(::testing::TempDir()) / "ladder_determinism_stats";
    fs::remove_all(base);
    for (unsigned jobs : {1u, 4u, 8u}) {
        ExperimentConfig cfg = quickConfig(jobs);
        cfg.statsJsonDir = (base / ("j" + std::to_string(jobs))).string();
        runMatrixParallel(schemes, workloads, cfg);
    }

    const std::string index = slurp(base / "j1" / "sweep.json");
    ASSERT_FALSE(index.empty());
    EXPECT_EQ(index, slurp(base / "j4" / "sweep.json"));
    EXPECT_EQ(index, slurp(base / "j8" / "sweep.json"));
    for (const auto &workload : workloads) {
        for (SchemeKind kind : schemes) {
            const fs::path rel =
                fs::path(runDirName(kind, workload)) / "stats.json";
            SCOPED_TRACE(rel.string());
            const std::string serial = slurp(base / "j1" / rel);
            ASSERT_FALSE(serial.empty());
            EXPECT_EQ(serial, slurp(base / "j4" / rel));
            EXPECT_EQ(serial, slurp(base / "j8" / rel));
            const JsonValue solver = parseJson(serial).at("solver");
            EXPECT_EQ(solver.at("solves").number,
                      kind == SchemeKind::SplitReset ? 2434.0 : 1218.0);
        }
    }
    fs::remove_all(base);
}

TEST(ParallelDeterminism, CanonicallyFirstFailureSurfaces)
{
    // Two failing cells: the mix-1 cell (a bad override) is
    // canonically later than 'nope-a' but, with four programs,
    // dispatched first. The sweep still rethrows the canonically
    // first failure at every job count.
    for (unsigned jobs : {1u, 4u, 8u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        ExperimentConfig cfg = quickConfig(jobs);
        cfg.cellOverrides.push_back(
            {"baseline", "mix-1", {{"measure", "bogus"}}});
        try {
            runMatrixParallel({SchemeKind::Baseline},
                              {"lbm", "nope-a", "mix-1"}, cfg);
            ADD_FAILURE() << "a failing cell did not surface";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("'nope-a'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ParallelDeterminism, CellCrossbarOverrideMatchesStandaloneRun)
{
    // A sweep-spec cell that changes the crossbar must price
    // Split-reset's half-RESET phases on its own circuit, not on a
    // half model an earlier default cell built.
    ExperimentConfig sweep = quickConfig(1);
    sweep.cellOverrides.push_back(
        {"Split-reset", "mcf", {{"xbar.wire-ohms", "5"}}});
    Matrix m = runMatrixParallel({SchemeKind::SplitReset},
                                 {"lbm", "mcf"}, sweep);

    const SimResult &cell = m.at(SchemeKind::SplitReset, "mcf");
    ExperimentConfig alone = quickConfig(1);
    alone.system.crossbar.wireOhms = 5.0;
    expectBitIdentical(cell,
                       runOne(SchemeKind::SplitReset, "mcf", alone));
    // The resistive wire slows every half-RESET phase.
    ASSERT_GT(cell.dataWrites, 0u);
    EXPECT_GT(cell.avgWriteTwrNs,
              runOne(SchemeKind::SplitReset, "mcf", quickConfig(1))
                  .avgWriteTwrNs);
}

TEST(ParallelDeterminism, VariantsMatchStandaloneRunsInOrder)
{
    // An ablation's variants run on the pool, come back in variant
    // order, and each matches the same config run on its own.
    std::vector<ExperimentConfig> variants;
    for (unsigned lowRows : {0u, 256u}) {
        variants.push_back(quickConfig(4));
        variants.back().system.schemeOptions.hybridLowRows = lowRows;
    }
    std::vector<SimResult> results =
        runVariants(SchemeKind::LadderHybrid, "astar", variants);
    ASSERT_EQ(results.size(), variants.size());
    for (std::size_t i = 0; i < variants.size(); ++i) {
        SCOPED_TRACE(i);
        expectBitIdentical(
            results[i],
            runOne(SchemeKind::LadderHybrid, "astar", variants[i]));
    }
}

TEST(ParallelDeterminism, NoTwoCellsShareATraceFilePath)
{
    // Parallel sweep cells stream traces concurrently, so two cells
    // mapping to the same file would corrupt each other. The path
    // derivation must be injective over (scheme, workload) — even for
    // adversarial workload names that sanitize near each other.
    ExperimentConfig cfg = quickConfig(8);
    cfg.traceOutDir = "traces";
    cfg.traceFormat = "bin2";
    const std::vector<std::string> workloads = {
        "lbm",   "mix-1", "a/b",  "a_b",  "a%2Fb",
        "a%b",   "a.b",   "A/B",  "..",   "trace.bin",
    };
    std::set<std::string> paths;
    for (SchemeKind kind : allSchemeKinds()) {
        for (const auto &workload : workloads) {
            std::string path =
                traceFilePath(cfg, kind, workload).string();
            EXPECT_TRUE(paths.insert(path).second)
                << "trace path collision on " << path << " ("
                << schemeKindName(kind) << " / " << workload << ")";
        }
    }
    EXPECT_EQ(paths.size(),
              allSchemeKinds().size() * workloads.size());

    // Sanitized run directories are always a single path component
    // (the scheme prefix additionally guarantees none can ever be a
    // bare "." or ".." traversal).
    for (const auto &workload : workloads) {
        std::string dir = runDirName(SchemeKind::Baseline, workload);
        EXPECT_EQ(dir.find('/'), std::string::npos) << dir;
        EXPECT_EQ(dir.find('\\'), std::string::npos) << dir;
    }
    // Plain names keep their historical readable form.
    EXPECT_EQ(runDirName(SchemeKind::Baseline, "mix-1"),
              schemeKindName(SchemeKind::Baseline) + "__mix-1");
}

TEST(ParallelDeterminism, RepeatedParallelSweepsAreBitIdentical)
{
    // Two parallel runs of the same matrix agree with each other,
    // whatever the scheduler did in between.
    const std::vector<SchemeKind> schemes = {SchemeKind::LadderEst};
    const std::vector<std::string> workloads = {"libq", "cannl"};
    Matrix first =
        runMatrixParallel(schemes, workloads, quickConfig(4));
    Matrix second =
        runMatrixParallel(schemes, workloads, quickConfig(4));
    for (const auto &workload : workloads) {
        SCOPED_TRACE(workload);
        expectBitIdentical(first.at(SchemeKind::LadderEst, workload),
                           second.at(SchemeKind::LadderEst,
                                     workload));
    }
}

} // namespace
} // namespace ladder
