/**
 * @file
 * Golden end-to-end regression gate: one tiny fixed (Baseline x lbm)
 * run's stats.json and v2 binary trace must match the committed
 * reference bytes under tests/golden/ exactly. Any change to the
 * simulator's observable behaviour — event ordering, timing, stat
 * arithmetic, serialization — fails this test loudly instead of
 * drifting silently.
 *
 * When a change is *intentional*, regenerate the goldens with
 *
 *     LADDER_GOLDEN_REGEN=1 ./build/tests/test_golden_run
 *
 * and commit the rewritten files together with the change that
 * explains them (see tests/golden/README.md).
 *
 * Determinism notes: the solver block records the counters of the
 * timing model each run used, so it does not depend on what else the
 * process built. This test runs in its own binary so
 * LADDER_GIT_DESCRIBE is pinned before any test code runs and the
 * manifest does not change with every commit.
 * Volatile manifest fields are off by default. The reference bytes
 * are produced by the repository's CI toolchain; a different
 * compiler's floating-point contraction choices may legitimately
 * require regeneration.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.hh"
#include "sim/experiment.hh"
#include "sim/stats_export.hh"

#ifndef LADDER_GOLDEN_DIR
#error "LADDER_GOLDEN_DIR must point at the committed golden files"
#endif

namespace fs = std::filesystem;

namespace ladder
{
namespace
{

/**
 * Pin the manifest's git_describe before the first call can memoize
 * the real `git describe` output (gitDescribeString caches under a
 * magic static, so this must run before any test body).
 */
const bool pinnedDescribe = []() {
    ::setenv("LADDER_GIT_DESCRIBE", "golden", /*overwrite=*/1);
    return true;
}();

ExperimentConfig
goldenConfig(const fs::path &outDir)
{
    ExperimentConfig cfg;
    // Deliberately NOT defaultExperimentConfig(): the golden window
    // must not scale with LADDER_BENCH_SCALE.
    cfg.warmupInstr = 60'000;
    cfg.measureInstr = 20'000;
    cfg.cacheScale = 1.0 / 16.0;
    cfg.system.epochCycles = 10'000;
    cfg.statsJsonDir = (outDir / "stats").string();
    cfg.traceOutDir = (outDir / "trace").string();
    cfg.traceFormat = "bin2";
    cfg.traceChunkRecords = 512;
    return cfg;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is.good())
        return {};
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/**
 * Run one golden cell end to end and compare (or regenerate) the
 * committed reference bytes. @p cell is the canonical directory name
 * `<scheme>__<workload>`; @p extraChecks runs against the parsed
 * stats.json document after the byte comparison.
 */
void
checkGoldenCell(SchemeKind scheme, const std::string &workload,
                const std::string &cell)
{
    ASSERT_TRUE(pinnedDescribe);
    const fs::path goldenDir = fs::path(LADDER_GOLDEN_DIR) / cell;
    const fs::path outDir =
        fs::path(::testing::TempDir()) / ("ladder_golden_" + cell);
    fs::remove_all(outDir);

    ExperimentConfig cfg = goldenConfig(outDir);
    runOne(scheme, workload, cfg);

    const fs::path statsOut =
        fs::path(cfg.statsJsonDir) / cell / "stats.json";
    const fs::path traceOut =
        fs::path(cfg.traceOutDir) / cell / "trace.bin";
    std::string stats = slurp(statsOut);
    std::string trace = slurp(traceOut);
    ASSERT_FALSE(stats.empty()) << statsOut;
    ASSERT_FALSE(trace.empty()) << traceOut;

    if (std::getenv("LADDER_GOLDEN_REGEN")) {
        fs::create_directories(goldenDir);
        fs::copy_file(statsOut, goldenDir / "stats.json",
                      fs::copy_options::overwrite_existing);
        fs::copy_file(traceOut, goldenDir / "trace.bin",
                      fs::copy_options::overwrite_existing);
        GTEST_SKIP() << "regenerated goldens in " << goldenDir;
    }

    std::string goldenStats = slurp(goldenDir / "stats.json");
    std::string goldenTrace = slurp(goldenDir / "trace.bin");
    ASSERT_FALSE(goldenStats.empty())
        << "missing golden " << (goldenDir / "stats.json")
        << " — regenerate with LADDER_GOLDEN_REGEN=1";
    ASSERT_FALSE(goldenTrace.empty())
        << "missing golden " << (goldenDir / "trace.bin");

    EXPECT_TRUE(stats == goldenStats)
        << "stats.json drifted from the golden run (" << stats.size()
        << " vs " << goldenStats.size()
        << " bytes). If the change is intentional, regenerate: "
           "LADDER_GOLDEN_REGEN=1 ./build/tests/test_golden_run";
    EXPECT_TRUE(trace == goldenTrace)
        << "trace.bin drifted from the golden run (" << trace.size()
        << " vs " << goldenTrace.size()
        << " bytes). If the change is intentional, regenerate: "
           "LADDER_GOLDEN_REGEN=1 ./build/tests/test_golden_run";

    // The manifest embeds the fully-resolved config (schema v2), in
    // manifest scope: simulation-affecting parameters present, output
    // paths and parallelism absent.
    JsonValue doc = parseJson(stats);
    ASSERT_TRUE(doc.isObject());
    EXPECT_DOUBLE_EQ(doc.at("schema_version").number, 2.0);
    ASSERT_TRUE(doc.has("resolved_config"));
    const JsonValue &resolved = doc.at("resolved_config");
    ASSERT_TRUE(resolved.isObject());
    EXPECT_DOUBLE_EQ(resolved.at("measure").number, 20000.0);
    EXPECT_DOUBLE_EQ(resolved.at("epoch-cycles").number, 10000.0);
    EXPECT_EQ(resolved.at("trace-format").string, "bin2");
    EXPECT_FALSE(resolved.has("stats-json"));
    EXPECT_FALSE(resolved.has("jobs"));

    // The run is also reproducible within this process: a second
    // identical run must produce the same bytes, or the golden gate
    // would flake rather than catch drift.
    const fs::path outDir2 =
        fs::path(::testing::TempDir()) /
        ("ladder_golden2_" + cell);
    fs::remove_all(outDir2);
    ExperimentConfig cfg2 = goldenConfig(outDir2);
    runOne(scheme, workload, cfg2);
    EXPECT_EQ(stats, slurp(fs::path(cfg2.statsJsonDir) / cell /
                           "stats.json"));
    EXPECT_EQ(trace, slurp(fs::path(cfg2.traceOutDir) / cell /
                           "trace.bin"));

    fs::remove_all(outDir);
    fs::remove_all(outDir2);
}

TEST(GoldenRun, BaselineLbmMatchesCommittedBytes)
{
    checkGoldenCell(SchemeKind::Baseline, "lbm", "baseline__lbm");
}

/**
 * Second cell: a content-aware generator family through the LADDER
 * scheme, locking the new workload frontend's observable behaviour
 * (generator stream, first-touch content, timing interaction) to
 * committed bytes.
 */
TEST(GoldenRun, LadderHybridDnnUpdateMatchesCommittedBytes)
{
    checkGoldenCell(SchemeKind::LadderHybrid, "dnn-update",
                    "LADDER-Hybrid__dnn-update");
}

} // namespace
} // namespace ladder
