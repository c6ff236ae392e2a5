/**
 * @file
 * Tests for the Chrome-trace/Perfetto profile exporter
 * (sim/profile_export): an instrumented sweep produces a JSON
 * document with several distinct host span names, thread_name
 * metadata, and a sim-time track per run cell; and turning profiling
 * on leaves the deterministic stats exports byte-identical.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/profiler.hh"
#include "sim/experiment.hh"
#include "sim/profile_export.hh"

namespace fs = std::filesystem;
using namespace ladder;

namespace
{

ExperimentConfig
quickConfig(const fs::path &dir)
{
    ExperimentConfig cfg;
    // The measure window must be long enough for dirty evictions to
    // reach the trace as write records (~60k instructions for astar).
    cfg.warmupInstr = 30'000;
    cfg.measureInstr = 60'000;
    cfg.cacheScale = 1.0 / 16.0;
    cfg.jobs = 2;
    cfg.statsJsonDir = (dir / "stats").string();
    cfg.traceOutDir = (dir / "traces").string();
    cfg.traceFormat = "bin2";
    return cfg;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace

TEST(ProfileExport, SweepTimelineHasHostAndSimTracks)
{
    fs::path dir =
        fs::path(::testing::TempDir()) / "ladder_profile_export";
    fs::remove_all(dir);
    fs::create_directories(dir);

    ExperimentConfig cfg = quickConfig(dir);
    cfg.profileOut = (dir / "profile.json").string();
    const std::vector<SchemeKind> schemes = {SchemeKind::Baseline,
                                             SchemeKind::LadderHybrid};
    const std::vector<std::string> workloads = {"astar"};
    runMatrixParallel(schemes, workloads, cfg);
    prof::reset();

    JsonValue doc = parseJson(slurp(cfg.profileOut));
    ASSERT_TRUE(doc.isObject());
    ASSERT_TRUE(doc.has("traceEvents"));
    const auto &events = doc.at("traceEvents").array;
    ASSERT_FALSE(events.empty());

    std::set<std::string> hostSpanNames;
    std::set<std::string> threadNames;
    std::set<double> simPids;
    std::set<std::string> simEventNames;
    for (const auto &ev : events) {
        const std::string &ph = ev.at("ph").string;
        const double pid = ev.at("pid").number;
        if (ph == "X" && pid == 1.0) {
            hostSpanNames.insert(ev.at("name").string);
            // Complete events carry microsecond ts/dur.
            EXPECT_TRUE(ev.at("ts").isNumber());
            EXPECT_GE(ev.at("dur").number, 0.0);
        }
        if (ph == "M" && ev.at("name").string == "thread_name")
            threadNames.insert(
                ev.at("args").at("name").string);
        if (ph == "X" && pid != 1.0) {
            simPids.insert(pid);
            simEventNames.insert(ev.at("name").string);
        }
    }
    EXPECT_GE(hostSpanNames.size(), 3u)
        << "host spans: " << hostSpanNames.size();
    EXPECT_TRUE(hostSpanNames.count("run baseline__astar"));
    EXPECT_FALSE(threadNames.empty());
    EXPECT_TRUE(threadNames.count("ladder-main"));
    // One sim-time process per run cell, carrying write/read events.
    EXPECT_EQ(simPids.size(), 2u);
    EXPECT_TRUE(simEventNames.count("write"));

    fs::remove_all(dir);
}

TEST(ProfileExport, ProfilingLeavesStatsExportsByteIdentical)
{
    fs::path dir =
        fs::path(::testing::TempDir()) / "ladder_profile_ident";
    fs::remove_all(dir);

    const std::vector<SchemeKind> schemes = {SchemeKind::Baseline};
    const std::vector<std::string> workloads = {"astar"};

    fs::path plainDir = dir / "plain";
    fs::create_directories(plainDir);
    ExperimentConfig plain = quickConfig(plainDir);
    runMatrixParallel(schemes, workloads, plain);

    fs::path profDir = dir / "profiled";
    fs::create_directories(profDir);
    ExperimentConfig profiled = quickConfig(profDir);
    profiled.profileOut = (profDir / "profile.json").string();
    runMatrixParallel(schemes, workloads, profiled);
    prof::reset();

    EXPECT_EQ(slurp(fs::path(plain.statsJsonDir) / "sweep.json"),
              slurp(fs::path(profiled.statsJsonDir) / "sweep.json"));
    EXPECT_EQ(slurp(fs::path(plain.statsJsonDir) /
                    "baseline__astar" / "stats.json"),
              slurp(fs::path(profiled.statsJsonDir) /
                    "baseline__astar" / "stats.json"));

    fs::remove_all(dir);
}

TEST(ProfileExport, CountersComeOnlyFromTelemetry)
{
    // Host counter samples (pid 1) mirror telemetry gauges; with
    // telemetry off a profiled LADDER run (timing lookups on every
    // write) has none. The sim-time queue-depth tracks are not host
    // samples.
    fs::path dir =
        fs::path(::testing::TempDir()) / "ladder_profile_counters";
    fs::remove_all(dir);
    fs::create_directories(dir);

    ExperimentConfig cfg = quickConfig(dir);
    ASSERT_EQ(cfg.telemetryIntervalMs, 0u);
    cfg.profileOut = (dir / "profile.json").string();
    runMatrixParallel({SchemeKind::LadderHybrid}, {"astar"}, cfg);
    prof::reset();

    JsonValue doc = parseJson(slurp(cfg.profileOut));
    std::size_t counters = 0;
    bool sawWrite = false;
    for (const auto &ev : doc.at("traceEvents").array) {
        if (ev.at("ph").string == "C" && ev.at("pid").number == 1.0)
            ++counters;
        if (ev.at("ph").string == "X" && ev.at("name").string == "write")
            sawWrite = true;
    }
    EXPECT_TRUE(sawWrite) << "the run must reach the write path";
    EXPECT_EQ(counters, 0u);

    fs::remove_all(dir);
}

TEST(ProfileExport, WriteChromeTraceSerializesHandAuthoredLogs)
{
    prof::ThreadLog log;
    log.threadId = 0;
    log.name = "hand-authored";
    log.spans.push_back({"alpha", 1'000, 3'500});
    log.counters.push_back({"depth", 2'000, 4.0});

    ExperimentConfig cfg; // no traceOutDir: host tracks only
    std::ostringstream os;
    writeChromeTrace(os, {log}, cfg, {});

    JsonValue doc = parseJson(os.str());
    const auto &events = doc.at("traceEvents").array;
    bool sawSpan = false, sawCounter = false, sawName = false;
    for (const auto &ev : events) {
        const std::string &ph = ev.at("ph").string;
        if (ph == "X" && ev.at("name").string == "alpha") {
            sawSpan = true;
            EXPECT_DOUBLE_EQ(ev.at("ts").number, 1.0);
            EXPECT_DOUBLE_EQ(ev.at("dur").number, 2.5);
        }
        if (ph == "C" && ev.at("name").string == "depth") {
            sawCounter = true;
            EXPECT_DOUBLE_EQ(
                ev.at("args").at("value").number, 4.0);
        }
        if (ph == "M" && ev.at("name").string == "thread_name" &&
            ev.at("args").at("name").string == "hand-authored")
            sawName = true;
    }
    EXPECT_TRUE(sawSpan);
    EXPECT_TRUE(sawCounter);
    EXPECT_TRUE(sawName);
}
