/**
 * @file
 * ladder_query engine tests against the committed fixtures in
 * tests/data/query: glob matching, sweep.json flattening, multi-run
 * merge, stats-before-trace load precedence, and the diff exit-code
 * contract (0 clean / 1 regression / 2 usage-or-load error or
 * nothing compared) that CI relies on. test_attribution covers the
 * blame.* profile of real attribution traces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "sim/stats_query.hh"

using namespace ladder;

namespace
{

const std::string runA =
    std::string(LADDER_QUERY_FIXTURES) + "/runA";
const std::string runB =
    std::string(LADDER_QUERY_FIXTURES) + "/runB";
/** A committed controller trace recorded without attribution. */
const std::string miniTrace =
    std::string(LADDER_QUERY_FIXTURES) + "/../mini_ctrl.bin2";

int
runQuery(const std::vector<std::string> &args,
         std::string *outText = nullptr,
         std::string *errText = nullptr)
{
    std::ostringstream out, err;
    int rc = ladderQueryMain(args, out, err);
    if (outText)
        *outText = out.str();
    if (errText)
        *errText = err.str();
    return rc;
}

} // namespace

TEST(StatGlob, Basics)
{
    EXPECT_TRUE(statGlobMatch("", "anything.at.all"));
    EXPECT_TRUE(statGlobMatch("*", "anything"));
    EXPECT_TRUE(statGlobMatch("ctrl.*latency*",
                              "ctrl.write_latency.mean"));
    EXPECT_FALSE(statGlobMatch("ctrl.*latency*",
                               "cache.l2_misses"));
    EXPECT_TRUE(statGlobMatch("*.ipc", "baseline__astar.ipc"));
    EXPECT_FALSE(statGlobMatch("*.ipc", "ipc"));
    EXPECT_TRUE(statGlobMatch("a?c", "abc"));
    EXPECT_FALSE(statGlobMatch("a?c", "ac"));
    EXPECT_TRUE(statGlobMatch("a*b*c", "a.x.b.y.c"));
    EXPECT_FALSE(statGlobMatch("a*b*c", "a.x.c"));
}

TEST(StatSource, LoadsSweepJsonFromDirectory)
{
    StatSource src;
    std::string error;
    ASSERT_TRUE(loadStatSource(runA, src, error)) << error;
    EXPECT_DOUBLE_EQ(src.values.at("LADDER-Hybrid__astar.ipc"),
                     1.1);
    EXPECT_DOUBLE_EQ(src.values.at("baseline__astar.data_reads"),
                     1000.0);
    // Every cell flattened: 2 cells x 5 result fields.
    EXPECT_EQ(src.values.size(), 10u);
}

TEST(StatSource, LoadErrorsAreReported)
{
    StatSource src;
    std::string error;
    EXPECT_FALSE(loadStatSource(runA + "/nope", src, error));
    EXPECT_NE(error.find("no such file"), std::string::npos);
}

TEST(StatSource, StatsFileTakesPrecedenceOverTrace)
{
    // A directory holding both a stats file and a trace is read as
    // the stats file; the trace here lacks attribution, so loading it
    // instead would fail.
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) / "ladder_query_precedence";
    fs::remove_all(dir);
    fs::create_directories(dir);
    fs::copy_file(runA + "/sweep.json", dir / "stats.json");
    fs::copy_file(miniTrace, dir / "trace.bin");

    StatSource fromDir, fromFixture;
    std::string error;
    ASSERT_TRUE(loadStatSource(dir.string(), fromDir, error)) << error;
    ASSERT_TRUE(loadStatSource(runA, fromFixture, error)) << error;
    EXPECT_EQ(fromDir.values, fromFixture.values);
    fs::remove_all(dir);
}

TEST(StatSource, TraceWithoutAttributionIsALoadError)
{
    StatSource src;
    std::string error;
    EXPECT_FALSE(loadStatSource(miniTrace, src, error));
    EXPECT_NE(error.find("no attribution block"), std::string::npos)
        << error;
}

TEST(StatDiffTest, FlagsOnlyMovesBeyondThreshold)
{
    StatSource a, b;
    std::string error;
    ASSERT_TRUE(loadStatSource(runA, a, error)) << error;
    ASSERT_TRUE(loadStatSource(runB, b, error)) << error;
    std::vector<StatDiff> diffs = diffStatSources(a, b, "", 0.02);
    ASSERT_EQ(diffs.size(), 10u);
    int flagged = 0;
    for (const StatDiff &d : diffs) {
        if (d.name == "LADDER-Hybrid__astar.ipc") {
            // 1.1 -> 0.99: a 10% regression.
            EXPECT_NEAR(d.relDelta, -0.1, 1e-9);
            EXPECT_TRUE(d.flagged);
        }
        if (d.name == "LADDER-Hybrid__astar.data_writes") {
            // 400 -> 401: 0.25%, inside a 2% threshold.
            EXPECT_FALSE(d.flagged);
        }
        flagged += d.flagged ? 1 : 0;
    }
    // ipc and avg_read_latency_ns moved ~10%; nothing else did.
    EXPECT_EQ(flagged, 2);
}

TEST(QueryCli, MergesRunsIntoOneTable)
{
    std::string out;
    ASSERT_EQ(runQuery({runA, runB}, &out), 0);
    EXPECT_NE(out.find("baseline__astar.ipc"), std::string::npos);
    EXPECT_NE(out.find("runA"), std::string::npos);
    EXPECT_NE(out.find("runB"), std::string::npos);
    EXPECT_NE(out.find("10 stats x 2 runs"), std::string::npos);
}

TEST(QueryCli, GlobSelectsRows)
{
    std::string out;
    ASSERT_EQ(runQuery({"*.ipc", runA, runB}, &out), 0);
    EXPECT_NE(out.find("2 stats x 2 runs"), std::string::npos);
    EXPECT_EQ(out.find("data_reads"), std::string::npos);
}

TEST(QueryCli, ListStatsPrintsNamesOnePerLine)
{
    std::string out;
    ASSERT_EQ(runQuery({"--list-stats", runA}, &out), 0);
    EXPECT_NE(out.find("baseline__astar.ipc\n"), std::string::npos);
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 10);
    // Globs narrow the listing; diff mode does not accept the flag.
    ASSERT_EQ(runQuery({"*.ipc", "--list-stats", runA}, &out), 0);
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 2);
    std::string err;
    EXPECT_EQ(runQuery({"diff", "--list-stats", runA, runB}, nullptr,
                       &err),
              2);
}

TEST(QueryCli, DiffExitCodeTracksThreshold)
{
    std::string out;
    // 10% moves beyond a 2% threshold: regression exit.
    EXPECT_EQ(runQuery({"diff", runA, runB, "threshold=0.02"},
                       &out),
              1);
    EXPECT_NE(out.find("REGRESSION"), std::string::npos);
    // A 20% threshold tolerates every move in the fixtures.
    EXPECT_EQ(runQuery({"diff", runA, runB, "threshold=0.2"}), 0);
    // Glob restricting to an unmoved stat also passes.
    EXPECT_EQ(runQuery({"diff", "*data_reads", runA, runB,
                        "threshold=0.02"}),
              0);
    // Identical runs never flag.
    EXPECT_EQ(runQuery({"diff", runA, runA, "threshold=0.0"}), 0);
}

TEST(QueryCli, UsageAndLoadErrorsExitTwo)
{
    std::string err;
    EXPECT_EQ(runQuery({}, nullptr, &err), 2);
    EXPECT_NE(err.find("usage:"), std::string::npos);
    EXPECT_EQ(runQuery({"diff", runA}, nullptr, &err), 2);
    EXPECT_EQ(runQuery({runA + "/missing-dir"}, nullptr, &err), 2);
    EXPECT_EQ(runQuery({"diff", runA, runB, "threshold=bogus"},
                       nullptr, &err),
              2);
}

TEST(QueryCli, DiffComparingNothingExitsTwo)
{
    // A glob typo must not pass the gate vacuously, in any format.
    for (const char *format : {"format=table", "format=csv",
                               "format=json"}) {
        std::string out, err;
        EXPECT_EQ(runQuery({"diff", "nosuchstat*", runA, runA, format},
                           &out, &err),
                  2)
            << format;
        EXPECT_NE(err.find("no stats in common"), std::string::npos)
            << err;
        EXPECT_TRUE(out.empty()) << out;
    }
}

TEST(QueryCli, MergeCsvFormat)
{
    std::string out;
    ASSERT_EQ(runQuery({runA, runB, "format=csv"}, &out), 0);
    // Header row: stat column plus one label column per run.
    EXPECT_EQ(out.rfind("stat,", 0), 0u);
    EXPECT_NE(out.find("runA"), std::string::npos);
    EXPECT_NE(out.find("runB"), std::string::npos);
    // One data row per stat, comma-separated, no table decoration.
    EXPECT_NE(out.find("LADDER-Hybrid__astar.ipc,1.1,0.99"),
              std::string::npos);
    EXPECT_EQ(out.find("stats x"), std::string::npos);
    // 1 header + 10 stat rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 11);
}

TEST(QueryCli, MergeJsonFormat)
{
    std::string out;
    ASSERT_EQ(runQuery({runA, runB, "format=json"}, &out), 0);
    JsonValue doc = parseJson(out);
    ASSERT_TRUE(doc.isObject());
    ASSERT_EQ(doc.at("runs").array.size(), 2u);
    EXPECT_EQ(doc.at("runs").array[0].string, runA);
    const JsonValue &stats = doc.at("stats");
    ASSERT_TRUE(stats.isObject());
    EXPECT_EQ(stats.object.size(), 10u);
    const JsonValue &ipc = stats.at("LADDER-Hybrid__astar.ipc");
    ASSERT_EQ(ipc.array.size(), 2u);
    EXPECT_DOUBLE_EQ(ipc.array[0].number, 1.1);
    EXPECT_DOUBLE_EQ(ipc.array[1].number, 0.99);
}

TEST(QueryCli, DiffCsvKeepsExitContract)
{
    std::string out;
    EXPECT_EQ(runQuery({"diff", runA, runB, "threshold=0.02",
                        "format=csv"},
                       &out),
              1);
    EXPECT_EQ(out.rfind("stat,base,other,rel_delta,flagged", 0), 0u);
    EXPECT_NE(out.find("LADDER-Hybrid__astar.ipc,1.1,0.99,-0.1,1"),
              std::string::npos);
    // A tolerant threshold exits 0 with the same format.
    out.clear();
    EXPECT_EQ(runQuery({"diff", runA, runB, "threshold=0.2",
                        "format=csv"},
                       &out),
              0);
    EXPECT_NE(out.find(",0\n"), std::string::npos);
}

TEST(QueryCli, DiffJsonKeepsExitContract)
{
    std::string out;
    EXPECT_EQ(runQuery({"diff", runA, runB, "threshold=0.02",
                        "format=json"},
                       &out),
              1);
    JsonValue doc = parseJson(out);
    EXPECT_EQ(doc.at("base").string, runA);
    EXPECT_EQ(doc.at("other").string, runB);
    EXPECT_DOUBLE_EQ(doc.at("threshold").number, 0.02);
    EXPECT_DOUBLE_EQ(doc.at("flagged").number, 2.0);
    ASSERT_EQ(doc.at("diffs").array.size(), 10u);
    int flagged = 0;
    for (const JsonValue &d : doc.at("diffs").array) {
        ASSERT_TRUE(d.isObject());
        if (d.at("flagged").boolean)
            ++flagged;
        if (d.at("stat").string == "LADDER-Hybrid__astar.ipc") {
            EXPECT_NEAR(d.at("rel_delta").number, -0.1, 1e-9);
        }
    }
    EXPECT_EQ(flagged, 2);
    // Identical runs in json format exit 0 and report zero flagged.
    out.clear();
    EXPECT_EQ(runQuery({"diff", runA, runA, "threshold=0.0",
                        "format=json"},
                       &out),
              0);
    EXPECT_DOUBLE_EQ(parseJson(out).at("flagged").number, 0.0);
}

TEST(QueryCli, BadFormatExitsTwo)
{
    std::string err;
    EXPECT_EQ(runQuery({runA, runB, "format=bogus"}, nullptr, &err),
              2);
    EXPECT_NE(err.find("bad format"), std::string::npos);
    EXPECT_EQ(runQuery({"diff", runA, runB, "format=xml"}, nullptr,
                       &err),
              2);
}
