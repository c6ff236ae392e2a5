/**
 * @file
 * End-to-end tests for the observability layer: trace sink
 * serialization, LADDER_LOG threshold filtering and warn_once rate
 * limiting, epoch snapshot cadence against simulated time, and the
 * headline determinism guarantee — stats.json / sweep.json / trace
 * files are byte-identical between jobs=1 and jobs=8 sweeps.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "ctrl/trace_reader.hh"
#include "ctrl/trace_sink.hh"
#include "sim/experiment.hh"
#include "sim/stats_export.hh"

namespace fs = std::filesystem;

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
    cfg.cacheScale = 1.0 / 16.0;
    return cfg;
}

TEST(TraceSink, CsvAndBinaryRoundTrip)
{
    WriteTraceSink sink;
    CtrlTraceRecord w;
    w.tick = 123456789;
    w.kind = CtrlTraceRecord::Kind::Write;
    w.channel = 2;
    w.wordline = 511;
    w.bitline = 1023;
    w.lrsCount = 77;
    w.latencyNs = 213.5f;
    w.queueDepth = 9;
    sink.record(w);
    CtrlTraceRecord r;
    r.tick = 123456999;
    r.kind = CtrlTraceRecord::Kind::Read;
    r.latencyNs = 41.25f;
    sink.record(r);
    ASSERT_EQ(sink.size(), 2u);

    std::ostringstream csv;
    sink.writeCsv(csv);
    std::string text = csv.str();
    EXPECT_NE(text.find("type,tick,channel,wordline,bitline,lrs_count,"
                        "latency_ns,queue_depth"),
              std::string::npos);
    EXPECT_NE(text.find("W,123456789,2,511,1023,77,213.500,9"),
              std::string::npos);
    EXPECT_NE(text.find("R,123456999,0,0,0,0,41.250,0"),
              std::string::npos);

    std::ostringstream bin;
    sink.writeBinaryV2(bin, 64);
    std::string bytes = bin.str();
    // 16-byte header, one 12-byte chunk header, 24 bytes per record,
    // a one-entry 36-byte footer, and the 16-byte trailer.
    ASSERT_EQ(bytes.size(), 16u + 12u + 2u * 24u + 36u + 16u);
    EXPECT_EQ(bytes.substr(0, 8), "LADDRTRC");
    // Version 2, chunk capacity 64, one chunk of 2 (little endian).
    EXPECT_EQ(static_cast<unsigned char>(bytes[8]), 2u);
    EXPECT_EQ(static_cast<unsigned char>(bytes[12]), 64u);
    EXPECT_EQ(bytes.substr(16, 4), "CHNK");
    EXPECT_EQ(static_cast<unsigned char>(bytes[20]), 2u);
    // First record starts with the 64-bit tick, little endian.
    std::uint64_t tick = 0;
    for (int i = 7; i >= 0; --i)
        tick = (tick << 8) |
               static_cast<unsigned char>(bytes[28 + i]);
    EXPECT_EQ(tick, 123456789u);

    sink.clear();
    EXPECT_EQ(sink.size(), 0u);
}

TEST(Logging, ThresholdFiltersAndWarnOnceRateLimits)
{
    std::vector<std::pair<LogLevel, std::string>> captured;
    setLogSink([&](LogLevel level, const std::string &msg) {
        captured.emplace_back(level, msg);
    });
    LogLevel before = logThreshold();

    setLogThreshold(LogLevel::Warn);
    inform("not visible at warn threshold");
    debugf("never visible at warn threshold");
    warn("visible warning %d", 42);
    ASSERT_EQ(captured.size(), 1u);
    EXPECT_EQ(captured[0].first, LogLevel::Warn);
    EXPECT_NE(captured[0].second.find("visible warning 42"),
              std::string::npos);

    setLogThreshold(LogLevel::Debug);
    debugf("now visible");
    ASSERT_EQ(captured.size(), 2u);
    EXPECT_EQ(captured[1].first, LogLevel::Debug);

    captured.clear();
    setLogThreshold(LogLevel::Info);
    for (int i = 0; i < 5; ++i)
        warn_once("repeated condition %d", i);
    ASSERT_EQ(captured.size(), 1u);
    EXPECT_NE(captured[0].second.find("repeated condition 0"),
              std::string::npos);
    EXPECT_NE(captured[0].second.find("suppressed"),
              std::string::npos);

    setLogThreshold(before);
    setLogSink(nullptr);
}

TEST(EpochSnapshots, CadenceMatchesSimulatedTime)
{
    ExperimentConfig cfg = quickConfig();
    cfg.system.epochCycles = 2'000;
    SystemConfig sysCfg =
        makeSystemConfig(SchemeKind::Baseline, "lbm", cfg);
    System system(sysCfg);
    SimResult result =
        system.run(cfg.warmupInstr, cfg.measureInstr);

    const auto &names = system.epochNames();
    const auto &epochs = system.epochs();
    ASSERT_FALSE(names.empty());
    ASSERT_FALSE(epochs.empty());
    for (const EpochSnapshot &snap : epochs)
        ASSERT_EQ(snap.values.size(), names.size());

    // Epochs are spaced exactly epochCycles apart in core time and
    // stop when the last core finishes, so the count must match the
    // measured window length (give ±2 for the boundary epochs).
    double epochNs = static_cast<double>(cfg.system.epochCycles) /
                     sysCfg.core.freqGhz;
    double expected = result.elapsedNs / epochNs;
    EXPECT_NEAR(static_cast<double>(epochs.size()), expected, 2.0)
        << "elapsedNs=" << result.elapsedNs
        << " epochNs=" << epochNs;

    // Snapshot ticks strictly increase and counter-style stats are
    // monotonic across the series.
    std::size_t writesIdx = names.size();
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (names[i] == "ctrl0.data_writes")
            writesIdx = i;
    }
    ASSERT_LT(writesIdx, names.size());
    for (std::size_t i = 1; i < epochs.size(); ++i) {
        EXPECT_LT(epochs[i - 1].tick, epochs[i].tick);
        EXPECT_LE(epochs[i - 1].values[writesIdx],
                  epochs[i].values[writesIdx]);
    }
}

/** All regular files under @p root, keyed by their relative path. */
std::map<std::string, std::string>
slurpTree(const fs::path &root)
{
    std::map<std::string, std::string> files;
    for (const auto &entry : fs::recursive_directory_iterator(root)) {
        if (!entry.is_regular_file())
            continue;
        std::ifstream is(entry.path(), std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        files[fs::relative(entry.path(), root).string()] = os.str();
    }
    return files;
}

TEST(StatsExport, ByteIdenticalAcrossJobCounts)
{
    std::vector<SchemeKind> schemes = {SchemeKind::Baseline,
                                       allSchemeKinds().back()};
    std::vector<std::string> workloads = {"lbm", "astar"};

    fs::path base = fs::path(::testing::TempDir()) / "ladder_obs";
    fs::remove_all(base);
    auto sweep = [&](unsigned jobs, const fs::path &dir) {
        ExperimentConfig cfg = quickConfig();
        cfg.jobs = jobs;
        cfg.system.epochCycles = 10'000;
        cfg.statsJsonDir = (dir / "stats").string();
        cfg.traceOutDir = (dir / "trace").string();
        runMatrixParallel(schemes, workloads, cfg);
    };
    sweep(1, base / "jobs1");
    sweep(8, base / "jobs8");

    auto serial = slurpTree(base / "jobs1");
    auto parallel = slurpTree(base / "jobs8");
    ASSERT_FALSE(serial.empty());
    ASSERT_EQ(serial.size(), parallel.size());
    // 4 runs x (stats.json + trace.csv) + sweep.json.
    EXPECT_EQ(serial.size(), 9u);
    for (const auto &[rel, bytes] : serial) {
        auto it = parallel.find(rel);
        ASSERT_NE(it, parallel.end()) << rel << " missing at jobs=8";
        EXPECT_EQ(bytes, it->second)
            << rel << " differs between jobs=1 and jobs=8";
    }

    // Every stats.json is valid JSON with the documented top level.
    for (const auto &[rel, bytes] : serial) {
        if (rel.find("stats.json") == std::string::npos)
            continue;
        JsonValue v = parseJson(bytes);
        EXPECT_DOUBLE_EQ(v.at("schema_version").number, 2.0);
        EXPECT_TRUE(v.at("manifest").isObject());
        EXPECT_TRUE(v.at("resolved_config").isObject());
        EXPECT_TRUE(v.at("result").isObject());
        EXPECT_TRUE(v.at("stats").isArray());
        EXPECT_TRUE(v.at("solver").isObject());
        ASSERT_TRUE(v.at("epochs").isObject());
        EXPECT_FALSE(v.at("epochs").at("series").array.empty());
        EXPECT_FALSE(v.at("manifest").at("run").string.empty());
        EXPECT_GT(v.at("result").at("data_writes").number, 0.0);
    }

    // The sweep index lists every cell in canonical order.
    JsonValue sweepJson = parseJson(serial.at("stats/sweep.json"));
    ASSERT_EQ(sweepJson.at("cells").array.size(), 4u);
    EXPECT_EQ(sweepJson.at("cells").array[0].at("workload").string,
              "lbm");

    // Traces contain write records for every run.
    for (const auto &[rel, bytes] : serial) {
        if (rel.find("trace.csv") == std::string::npos)
            continue;
        EXPECT_NE(bytes.find("\nW,"), std::string::npos)
            << rel << " has no write records";
    }

    fs::remove_all(base);
}

TEST(StatsExport, StreamingTracesMatchBufferedAtAnyJobCount)
{
    // The headline streaming guarantee: for a given config, the trace
    // bytes on disk are identical whether the sink buffered the whole
    // run or wrote each fixed-size chunk as it filled —
    // and identical again at any sweep parallelism.
    std::vector<SchemeKind> schemes = {SchemeKind::Baseline,
                                       SchemeKind::LadderHybrid};
    std::vector<std::string> workloads = {"lbm", "astar"};

    fs::path base = fs::path(::testing::TempDir()) / "ladder_stream";
    fs::remove_all(base);
    auto sweep = [&](bool stream, unsigned jobs,
                     const fs::path &dir) {
        ExperimentConfig cfg = quickConfig();
        cfg.jobs = jobs;
        cfg.traceOutDir = (dir / "trace").string();
        cfg.traceFormat = "bin2";
        cfg.traceStream = stream;
        // Small chunks force many flush boundaries per run.
        cfg.traceChunkRecords = 64;
        runMatrixParallel(schemes, workloads, cfg);
    };
    sweep(false, 1, base / "buffered");
    sweep(true, 1, base / "stream1");
    sweep(true, 8, base / "stream8");

    auto buffered = slurpTree(base / "buffered");
    auto stream1 = slurpTree(base / "stream1");
    auto stream8 = slurpTree(base / "stream8");
    ASSERT_EQ(buffered.size(), 4u);
    ASSERT_EQ(stream1.size(), buffered.size());
    ASSERT_EQ(stream8.size(), buffered.size());
    for (const auto &[rel, bytes] : buffered) {
        ASSERT_TRUE(stream1.count(rel)) << rel;
        ASSERT_TRUE(stream8.count(rel)) << rel;
        EXPECT_EQ(bytes, stream1.at(rel))
            << rel << " differs between buffered and streaming";
        EXPECT_EQ(bytes, stream8.at(rel))
            << rel << " differs between jobs=1 and jobs=8 streaming";
        // And every streamed file is a valid v2 trace.
        TraceReader reader;
        ASSERT_TRUE(reader.openBuffer(bytes)) << reader.error();
        EXPECT_EQ(reader.version(), 2u);
        CtrlTraceRecord rec;
        std::uint64_t n = 0;
        while (reader.next(rec))
            ++n;
        EXPECT_TRUE(reader.ok()) << reader.error();
        EXPECT_EQ(n, reader.totalRecords());
        EXPECT_GT(n, 0u) << rel;
    }

    fs::remove_all(base);
}

TEST(EpochSnapshots, CacheAndCoreSeriesAlignWithControllerEpochs)
{
    ExperimentConfig cfg = quickConfig();
    cfg.system.epochCycles = 2'000;
    SystemConfig sysCfg =
        makeSystemConfig(SchemeKind::Baseline, "lbm", cfg);
    System system(sysCfg);
    system.run(cfg.warmupInstr, cfg.measureInstr);

    const auto &names = system.epochNames();
    const auto &epochs = system.epochs();
    ASSERT_FALSE(epochs.empty());

    // Controller names keep their historical leading positions; the
    // core and cache hierarchy series ride in the same flat vector —
    // one snapshot per tick covers every group, so the series are
    // aligned tick-for-tick by construction.
    ASSERT_FALSE(names.empty());
    EXPECT_EQ(names.front().rfind("ctrl0.", 0), 0u) << names.front();
    auto indexOf = [&](const std::string &name) {
        for (std::size_t i = 0; i < names.size(); ++i)
            if (names[i] == name)
                return i;
        ADD_FAILURE() << name << " missing from epoch names";
        return names.size();
    };
    std::size_t ctrlWrites = indexOf("ctrl0.data_writes");
    std::size_t coreLoads = indexOf("core0.loads");
    std::size_t l1Hits = indexOf("cache0.l1_hits");
    std::size_t l2Miss = indexOf("cache0.l2_misses");
    std::size_t l3Hits = indexOf("l3.hits");
    ASSERT_LT(l3Hits, names.size());

    for (const EpochSnapshot &snap : epochs)
        ASSERT_EQ(snap.values.size(), names.size());
    for (std::size_t i = 1; i < epochs.size(); ++i) {
        // Every series is a monotone counter sampled at the same
        // instant, so each column must be non-decreasing.
        for (std::size_t idx :
             {ctrlWrites, coreLoads, l1Hits, l2Miss, l3Hits}) {
            EXPECT_LE(epochs[i - 1].values[idx],
                      epochs[i].values[idx])
                << names[idx] << " regressed at epoch " << i;
        }
    }
    // The measured window actually exercises the cache and core
    // stats (they reset at the window boundary with the controller
    // stats, so nonzero values prove live sampling, not stale
    // warmup counts).
    EXPECT_GT(epochs.back().values[coreLoads], 0.0);
    EXPECT_GT(epochs.back().values[l1Hits], 0.0);
}

TEST(StatsExport, ManifestHelpers)
{
    EXPECT_FALSE(gitDescribeString().empty());
    EXPECT_EQ(runDirName(SchemeKind::Baseline, "mix-1"),
              schemeKindName(SchemeKind::Baseline) + "__mix-1");

    ExperimentConfig cfg = quickConfig();
    RunManifest m =
        makeRunManifest(SchemeKind::Baseline, "lbm", cfg);
    EXPECT_EQ(m.workload, "lbm");
    EXPECT_EQ(m.warmupInstr, cfg.warmupInstr);
    EXPECT_FALSE(m.volatileFields);
    cfg.volatileManifest = true;
    cfg.jobs = 3;
    m = makeRunManifest(SchemeKind::Baseline, "lbm", cfg);
    EXPECT_TRUE(m.volatileFields);
    EXPECT_EQ(m.jobs, 3u);
    EXPECT_FALSE(m.wallClockUtc.empty());
}

} // namespace
} // namespace ladder
