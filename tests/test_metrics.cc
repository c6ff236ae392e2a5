/** @file Tests for the lock-free live-metrics registry. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/metrics.hh"

namespace ladder
{
namespace
{

/** Leave the registry disabled and zeroed whatever a test does. */
struct MetricsReset
{
    MetricsReset() { metrics::reset(); }
    ~MetricsReset() { metrics::reset(); }
};

TEST(Metrics, RegistrationIsIdempotent)
{
    MetricsReset guard;
    metrics::MetricId a = metrics::registerCounter("test.idem");
    metrics::MetricId b = metrics::registerCounter("test.idem");
    EXPECT_EQ(a, b);
    metrics::MetricId g = metrics::registerGauge("test.idem_gauge");
    EXPECT_NE(a, g);
    // Re-registering under the other kind is a contract violation.
    EXPECT_THROW(metrics::registerGauge("test.idem"),
                 std::logic_error);
}

TEST(Metrics, DisabledSitesRecordNothingAndStayCheap)
{
    MetricsReset guard;
    ASSERT_FALSE(metrics::enabled());
    metrics::MetricId id = metrics::registerCounter("test.disabled");
    // Same bar as test_profiler's DisabledScopeStaysCheap: the off
    // path is one relaxed load and a branch; 200ns mean catches an
    // accidental slab lookup or allocation without flaking on CI.
    constexpr int iterations = 1'000'000;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iterations; ++i)
        metrics::add(id);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const double meanNs =
        std::chrono::duration<double, std::nano>(elapsed).count() /
        iterations;
    EXPECT_LT(meanNs, 200.0);
    EXPECT_EQ(metrics::value(id), 0u);
}

TEST(Metrics, CountersAggregateAcrossThreads)
{
    MetricsReset guard;
    metrics::MetricId id = metrics::registerCounter("test.threads");
    metrics::enable();
    constexpr int threads = 4;
    constexpr int perThread = 10'000;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([id]() {
            for (int i = 0; i < perThread; ++i)
                metrics::add(id, 2);
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(metrics::value(id),
              static_cast<std::uint64_t>(threads) * perThread * 2);
}

TEST(Metrics, GaugesSumPerThreadLastValues)
{
    MetricsReset guard;
    metrics::MetricId id = metrics::registerGauge("test.gauge");
    metrics::enable();
    metrics::set(id, 3);
    metrics::set(id, 7); // last value wins on this thread
    std::thread other([id]() { metrics::set(id, 5); });
    other.join();
    EXPECT_EQ(metrics::value(id), 12u);
}

TEST(Metrics, SnapshotIsTornFreeUnderConcurrentWrites)
{
    MetricsReset guard;
    metrics::MetricId id = metrics::registerCounter("test.torn");
    metrics::enable();
    constexpr int threads = 4;
    constexpr std::uint64_t perThread = 200'000;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([id]() {
            for (std::uint64_t i = 0; i < perThread; ++i)
                metrics::add(id);
        });
    }
    // Snapshot while the writers hammer: every observed value must be
    // monotonic and within the final total — a torn 64-bit read or a
    // data race (TSan) would violate both.
    std::uint64_t last = 0;
    for (int i = 0; i < 200; ++i) {
        std::uint64_t now = metrics::value(id);
        EXPECT_GE(now, last);
        EXPECT_LE(now, threads * perThread);
        last = now;
        for (const metrics::Sample &s : metrics::snapshot()) {
            if (s.name == "test.torn") {
                EXPECT_LE(s.value, threads * perThread);
            }
        }
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(metrics::value(id), threads * perThread);
}

TEST(Metrics, ConcurrentRegistrationYieldsOneId)
{
    MetricsReset guard;
    constexpr int threads = 8;
    std::vector<metrics::MetricId> ids(threads);
    std::atomic<int> ready{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([t, &ids, &ready]() {
            ready.fetch_add(1);
            while (ready.load() < threads) {
            }
            ids[static_cast<std::size_t>(t)] =
                metrics::registerCounter("test.race");
        });
    }
    for (auto &w : workers)
        w.join();
    for (int t = 1; t < threads; ++t)
        EXPECT_EQ(ids[0], ids[static_cast<std::size_t>(t)]);
}

TEST(Metrics, EnableZeroesPreviousSession)
{
    MetricsReset guard;
    metrics::MetricId id = metrics::registerCounter("test.session");
    metrics::enable();
    metrics::add(id, 41);
    metrics::disable();
    EXPECT_EQ(metrics::value(id), 41u); // survives disable
    metrics::enable();
    EXPECT_EQ(metrics::value(id), 0u); // cleared by the new session
}

TEST(Metrics, SnapshotSortsByNameAndKeepsKinds)
{
    MetricsReset guard;
    metrics::registerCounter("test.zz_counter");
    metrics::registerGauge("test.aa_gauge");
    std::vector<metrics::Sample> all = metrics::snapshot();
    ASSERT_GE(all.size(), 2u);
    for (std::size_t i = 1; i < all.size(); ++i)
        EXPECT_LT(all[i - 1].name, all[i].name);
    bool sawGauge = false, sawCounter = false;
    for (const metrics::Sample &s : all) {
        if (s.name == "test.aa_gauge") {
            sawGauge = true;
            EXPECT_EQ(s.kind, metrics::Kind::Gauge);
        }
        if (s.name == "test.zz_counter") {
            sawCounter = true;
            EXPECT_EQ(s.kind, metrics::Kind::Counter);
        }
    }
    EXPECT_TRUE(sawGauge);
    EXPECT_TRUE(sawCounter);
}

} // namespace
} // namespace ladder
