/**
 * @file
 * Tests for the host-side profiler (common/profiler): disabled sites
 * record nothing and stay within the "one relaxed load" cost budget,
 * enabled sessions capture spans/counters/thread names across
 * threads, enable() clears the previous session, and internName
 * returns stable deduplicated storage.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/profiler.hh"

using namespace ladder;

namespace
{

/** Total spans across every thread log. */
std::size_t
totalSpans(const std::vector<prof::ThreadLog> &logs)
{
    std::size_t n = 0;
    for (const auto &log : logs)
        n += log.spans.size();
    return n;
}

/** RAII: leave the profiler disabled and empty whatever happens. */
struct ProfReset
{
    ~ProfReset() { prof::reset(); }
};

} // namespace

TEST(Profiler, DisabledByDefaultAndRecordsNothing)
{
    ProfReset guard;
    EXPECT_FALSE(prof::enabled());
    {
        PROF_SCOPE("should_not_appear");
    }
    EXPECT_EQ(totalSpans(prof::collect()), 0u);
}

TEST(Profiler, DisabledScopeStaysCheap)
{
    ProfReset guard;
    ASSERT_FALSE(prof::enabled());
    // The disabled path is one relaxed atomic load and a branch; a
    // generous bound of 200ns mean per iteration catches accidental
    // clock reads or allocations (a steady_clock read alone is
    // ~20-40ns, an allocation far more) without flaking on slow CI.
    constexpr int iterations = 1'000'000;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iterations; ++i) {
        PROF_SCOPE("hot");
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const double meanNs =
        std::chrono::duration<double, std::nano>(elapsed).count() /
        iterations;
    EXPECT_LT(meanNs, 200.0);
    EXPECT_EQ(totalSpans(prof::collect()), 0u);
}

TEST(Profiler, EnabledSessionCapturesSpansAndCounters)
{
    ProfReset guard;
    prof::enable();
    ASSERT_TRUE(prof::enabled());
    prof::setCurrentThreadName("prof-test-main");
    {
        PROF_SCOPE("outer");
        {
            PROF_SCOPE("inner");
        }
        prof::recordCounter("queue_depth", 7.0);
    }
    prof::disable();

    auto logs = prof::collect();
    const prof::ThreadLog *mine = nullptr;
    for (const auto &log : logs)
        if (log.name == "prof-test-main")
            mine = &log;
    ASSERT_NE(mine, nullptr);
    ASSERT_GE(mine->spans.size(), 2u);
    // Scopes close inner-first, so "inner" precedes "outer".
    EXPECT_STREQ(mine->spans[0].name, "inner");
    EXPECT_STREQ(mine->spans[1].name, "outer");
    for (const auto &span : mine->spans)
        EXPECT_LE(span.startNs, span.endNs) << span.name;
    // "outer" fully contains "inner".
    EXPECT_LE(mine->spans[1].startNs, mine->spans[0].startNs);
    EXPECT_GE(mine->spans[1].endNs, mine->spans[0].endNs);
    ASSERT_EQ(mine->counters.size(), 1u);
    EXPECT_STREQ(mine->counters[0].name, "queue_depth");
    EXPECT_DOUBLE_EQ(mine->counters[0].value, 7.0);
}

TEST(Profiler, CollectsFromThreadsThatAlreadyExited)
{
    ProfReset guard;
    prof::enable();
    constexpr int workers = 4;
    constexpr int spansPer = 16;
    std::vector<std::thread> threads;
    for (int t = 0; t < workers; ++t) {
        threads.emplace_back([t]() {
            prof::setCurrentThreadName("prof-test-wk-" +
                                       std::to_string(t));
            for (int i = 0; i < spansPer; ++i) {
                PROF_SCOPE("worker_span");
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    prof::disable();

    auto logs = prof::collect();
    int seen = 0;
    for (const auto &log : logs) {
        if (log.name.rfind("prof-test-wk-", 0) != 0)
            continue;
        ++seen;
        EXPECT_EQ(log.spans.size(),
                  static_cast<std::size_t>(spansPer))
            << log.name;
    }
    EXPECT_EQ(seen, workers);
}

TEST(Profiler, EnableClearsThePreviousSession)
{
    ProfReset guard;
    prof::enable();
    {
        PROF_SCOPE("stale");
    }
    prof::disable();
    ASSERT_GE(totalSpans(prof::collect()), 1u);

    prof::enable();
    {
        PROF_SCOPE("fresh");
    }
    prof::disable();
    auto logs = prof::collect();
    ASSERT_EQ(totalSpans(logs), 1u);
    for (const auto &log : logs)
        for (const auto &span : log.spans)
            EXPECT_STREQ(span.name, "fresh");

    prof::reset();
    EXPECT_FALSE(prof::enabled());
    EXPECT_EQ(totalSpans(prof::collect()), 0u);
}

TEST(Profiler, NullNameScopeRecordsNothing)
{
    ProfReset guard;
    prof::enable();
    {
        prof::Scope scope(nullptr);
    }
    prof::disable();
    EXPECT_EQ(totalSpans(prof::collect()), 0u);
}

TEST(Profiler, InternNameIsStableAndDeduplicated)
{
    std::string dynamic = "run baseline__astar";
    const char *a = prof::internName(dynamic);
    dynamic[0] = 'X'; // interned copy must not alias the argument
    const char *b = prof::internName("run baseline__astar");
    EXPECT_EQ(a, b);
    EXPECT_STREQ(a, "run baseline__astar");
    EXPECT_NE(prof::internName("run other"), a);
}
