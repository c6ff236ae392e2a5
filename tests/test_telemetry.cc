/** @file Tests for the live-telemetry publisher and heartbeat schema. */

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "common/metrics.hh"
#include "sim/telemetry.hh"

namespace fs = std::filesystem;

namespace ladder
{
namespace
{

struct MetricsReset
{
    MetricsReset() { metrics::reset(); }
    ~MetricsReset() { metrics::reset(); }
};

fs::path
freshDir(const std::string &name)
{
    fs::path dir = fs::temp_directory_path() / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
}

TEST(Telemetry, HeartbeatJsonRoundTrips)
{
    Heartbeat hb;
    hb.seq = 17;
    hb.wallUnixMs = 1'700'000'000'123ull;
    hb.uptimeMs = 4'500;
    hb.intervalMs = 50;
    hb.simTick = 123'456'789ull;
    hb.cellsDone = 3;
    hb.cellsTotal = 8;
    hb.etaSeconds = 12.5;
    hb.counters["ctrl.ch0.writes"] = 42;
    hb.counters["ctrl.ch1.writes"] = 7;
    hb.gauges["ctrl.ch0.wq_depth"] = 5;
    hb.ratesPerSec["ctrl.ch0.writes"] = 84.0;

    std::ostringstream os;
    writeHeartbeatJson(os, hb);

    Heartbeat back;
    std::string error;
    ASSERT_TRUE(parseHeartbeat(os.str(), back, error)) << error;
    EXPECT_EQ(back.schemaVersion, heartbeatSchemaVersion);
    EXPECT_EQ(back.seq, hb.seq);
    EXPECT_EQ(back.wallUnixMs, hb.wallUnixMs);
    EXPECT_EQ(back.uptimeMs, hb.uptimeMs);
    EXPECT_EQ(back.intervalMs, hb.intervalMs);
    EXPECT_EQ(back.simTick, hb.simTick);
    EXPECT_EQ(back.cellsDone, hb.cellsDone);
    EXPECT_EQ(back.cellsTotal, hb.cellsTotal);
    EXPECT_DOUBLE_EQ(back.etaSeconds, hb.etaSeconds);
    EXPECT_EQ(back.counters, hb.counters);
    EXPECT_EQ(back.gauges, hb.gauges);
    EXPECT_EQ(back.ratesPerSec, hb.ratesPerSec);
}

TEST(Telemetry, ParseRejectsGarbageAndWrongVersions)
{
    Heartbeat hb;
    std::string error;
    EXPECT_FALSE(parseHeartbeat("not json at all", hb, error));
    EXPECT_FALSE(parseHeartbeat("[1,2,3]", hb, error));
    EXPECT_FALSE(parseHeartbeat("{\"seq\": 1}", hb, error));
    EXPECT_FALSE(parseHeartbeat(
        "{\"schema_version\": 999, \"seq\": 1}", hb, error));
    EXPECT_NE(error.find("999"), std::string::npos);
}

TEST(Telemetry, PublisherRenamesMonotonicSnapshots)
{
    MetricsReset guard;
    fs::path dir = freshDir("ladder_telemetry_pub");
    metrics::MetricId tick =
        metrics::registerGauge(metrics::names::simTick);
    metrics::enable();

    TelemetryOptions options;
    options.intervalMs = 5;
    options.dir = dir.string();
    options.watchdogIntervals = 0;

    std::vector<std::uint64_t> seqs;
    {
        TelemetryPublisher publisher(options);
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(30);
        std::uint64_t fed = 0;
        while (seqs.size() < 3 &&
               std::chrono::steady_clock::now() < deadline) {
            metrics::set(tick, ++fed);
            Heartbeat hb;
            std::string error;
            if (readHeartbeatFile(dir.string(), hb, error) &&
                (seqs.empty() || hb.seq > seqs.back()))
                seqs.push_back(hb.seq);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2));
        }
        publisher.stop();
        EXPECT_GE(publisher.published(), seqs.size());
    }
    ASSERT_GE(seqs.size(), 3u) << "publisher never produced 3 "
                                  "distinct heartbeats";
    for (std::size_t i = 1; i < seqs.size(); ++i)
        EXPECT_LT(seqs[i - 1], seqs[i]);

    // stop() leaves a final, parsable heartbeat for post-mortems and
    // never leaves the .tmp staging file behind.
    Heartbeat final;
    std::string error;
    ASSERT_TRUE(readHeartbeatFile(dir.string(), final, error))
        << error;
    EXPECT_GE(final.seq, seqs.back());
    EXPECT_FALSE(fs::exists(dir / "heartbeat.json.tmp"));
}

TEST(Telemetry, WatchdogTripsOnInjectedStall)
{
    MetricsReset guard;
    fs::path dir = freshDir("ladder_telemetry_watchdog");
    metrics::MetricId tick =
        metrics::registerGauge(metrics::names::simTick);
    metrics::MetricId total =
        metrics::registerGauge(metrics::names::cellsTotal);
    metrics::registerCounter(metrics::names::cellsDone);
    metrics::enable();
    // A run that looks alive (one pending cell) whose tick never
    // advances: the injected stall.
    metrics::set(tick, 1234);
    metrics::set(total, 1);

    std::mutex mutex;
    std::vector<std::string> warnings;
    setLogSink([&](LogLevel level, const std::string &message) {
        std::lock_guard<std::mutex> lock(mutex);
        if (level == LogLevel::Warn)
            warnings.push_back(message);
    });

    TelemetryOptions options;
    options.intervalMs = 5;
    options.dir = dir.string();
    options.watchdogIntervals = 3;
    {
        TelemetryPublisher publisher(options);
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(30);
        bool tripped = false;
        while (!tripped &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
            std::lock_guard<std::mutex> lock(mutex);
            for (const std::string &w : warnings)
                tripped |= w.find("watchdog") != std::string::npos;
        }
        EXPECT_TRUE(tripped) << "watchdog never warned";
    }
    setLogSink(nullptr);

    std::string all;
    for (const std::string &w : warnings)
        all += w + "\n";
    EXPECT_NE(all.find("stuck at 1234"), std::string::npos) << all;
    // Exactly one warning per stall episode, not one per interval.
    std::size_t count = 0;
    for (const std::string &w : warnings)
        count += w.find("watchdog") != std::string::npos ? 1 : 0;
    EXPECT_EQ(count, 1u) << all;
}

TEST(Telemetry, OffByDefaultLeavesNoHeartbeatAndIdenticalStats)
{
    MetricsReset guard;
    fs::path off = freshDir("ladder_telemetry_off");
    fs::path on = freshDir("ladder_telemetry_on");

    // Windows long enough for the measured run to reach controller
    // writes.
    ExperimentConfig cfg;
    cfg.warmupInstr = 60'000;
    cfg.measureInstr = 40'000;
    cfg.cacheScale = 1.0 / 16.0;
    cfg.progress = "off";

    cfg.statsJsonDir = (off / "stats").string();
    ASSERT_EQ(cfg.telemetryIntervalMs, 0u); // off is the default
    {
        TelemetryScope scope(cfg, 1);
        runOne(SchemeKind::Baseline, "lbm", cfg);
        scope.noteCellDone();
    }
    EXPECT_FALSE(fs::exists(off / "stats" / heartbeatFileName));

    cfg.statsJsonDir = (on / "stats").string();
    cfg.telemetryIntervalMs = 5;
    {
        TelemetryScope scope(cfg, 1);
        runOne(SchemeKind::Baseline, "lbm", cfg);
        scope.noteCellDone();
    }
    EXPECT_TRUE(fs::exists(on / "stats" / heartbeatFileName));

    // The publisher's final snapshot parses, counts the finished cell
    // and carries the run's controller writes.
    Heartbeat hb;
    std::string error;
    ASSERT_TRUE(readHeartbeatFile((on / "stats").string(), hb, error))
        << error;
    EXPECT_EQ(hb.cellsDone, 1u);
    std::uint64_t writes = 0;
    for (const auto &[name, value] : hb.counters)
        if (name.starts_with("ctrl.ch") && name.ends_with(".writes"))
            writes += value;
    EXPECT_GT(writes, 0u);

    // The observability knob must not leak into simulation output:
    // stats.json bytes are identical with the publisher on or off.
    fs::path relative =
        fs::path("baseline__lbm") / "stats.json";
    std::string offBytes = slurp(off / "stats" / relative);
    std::string onBytes = slurp(on / "stats" / relative);
    ASSERT_FALSE(offBytes.empty());
    EXPECT_EQ(offBytes, onBytes);
}

TEST(Telemetry, OptionsFallBackToStatsDirAndWarnWithoutOne)
{
    ExperimentConfig cfg;
    cfg.telemetryIntervalMs = 50;
    cfg.statsJsonDir = "some/dir";
    TelemetryOptions options = telemetryOptions(cfg);
    EXPECT_TRUE(options.active());
    EXPECT_EQ(options.dir, "some/dir");

    cfg.telemetryOut = "elsewhere";
    EXPECT_EQ(telemetryOptions(cfg).dir, "elsewhere");

    cfg.telemetryOut.clear();
    cfg.statsJsonDir.clear();
    EXPECT_FALSE(telemetryOptions(cfg).active());
}

} // namespace
} // namespace ladder
