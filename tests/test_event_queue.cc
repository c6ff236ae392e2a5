/** @file Tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"

namespace ladder
{
namespace
{

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&]() { order.push_back(3); });
    q.schedule(10, [&]() { order.push_back(1); });
    q.schedule(20, [&]() { order.push_back(2); });
    q.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickPriorityThenFifo)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&]() { order.push_back(1); }, 1);
    q.schedule(5, [&]() { order.push_back(0); }, 0);
    q.schedule(5, [&]() { order.push_back(2); }, 1);
    q.runUntil();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, ScheduleInIsRelative)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(100, [&]() {
        q.scheduleIn(50, [&]() { seen = q.now(); });
    });
    q.runUntil();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, RunUntilLimit)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&]() { ++count; });
    q.schedule(20, [&]() { ++count; });
    q.schedule(30, [&]() { ++count; });
    EXPECT_EQ(q.runUntil(20), 2u);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.now(), 20u);
    EXPECT_EQ(q.pending(), 1u);
    q.runUntil();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> recurse = [&]() {
        if (++depth < 5)
            q.scheduleIn(1, recurse);
    };
    q.schedule(0, recurse);
    q.runUntil();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(q.now(), 4u);
}

TEST(EventQueue, StepExecutesOne)
{
    EventQueue q;
    int count = 0;
    q.schedule(1, [&]() { ++count; });
    q.schedule(2, [&]() { ++count; });
    EXPECT_TRUE(q.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(q.step());
    EXPECT_FALSE(q.step());
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, ExecutedCounter)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.schedule(i, []() {});
    q.runUntil();
    EXPECT_EQ(q.executed(), 7u);
}

TEST(EventQueue, ZeroDelaySameTick)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&]() {
        order.push_back(1);
        q.schedule(5, [&]() { order.push_back(2); });
    });
    q.runUntil();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, RandomOrderMatchesStableSortedReference)
{
    // Every executed event must be the first pending one in a stable
    // sort by (tick, priority): ties run in insertion order. Callbacks
    // schedule more events (some at the current tick), and draining in
    // windows lets freed callback slots be reused by later events.
    struct Pending
    {
        Tick when;
        int priority;
        unsigned id;
    };
    EventQueue q;
    Rng rng(17);
    std::vector<Pending> reference;
    unsigned nextId = 0, executed = 0, spawned = 0;
    std::function<void(unsigned)> fire;
    auto add = [&](Tick when) {
        const int priority = static_cast<int>(rng.nextBounded(3)) - 1;
        const unsigned id = nextId++;
        reference.push_back({when, priority, id});
        q.schedule(when, [&fire, id]() { fire(id); }, priority);
    };
    fire = [&](unsigned id) {
        std::stable_sort(reference.begin(), reference.end(),
                         [](const Pending &a, const Pending &b) {
                             if (a.when != b.when)
                                 return a.when < b.when;
                             return a.priority < b.priority;
                         });
        ASSERT_FALSE(reference.empty());
        EXPECT_EQ(reference.front().id, id);
        EXPECT_EQ(reference.front().when, q.now());
        reference.erase(reference.begin());
        ++executed;
        if (spawned < 2000 && rng.nextBool(0.4)) {
            for (unsigned n = 1 + rng.nextBounded(2); n > 0; --n, ++spawned)
                add(q.now() + rng.nextBounded(4));
        }
    };

    for (unsigned round = 0; round < 20; ++round) {
        for (unsigned i = 0; i < 200; ++i)
            add(q.now() + rng.nextBounded(64));
        q.runUntil(q.now() + 32);
        EXPECT_EQ(q.pending(), reference.size());
    }
    q.runUntil();
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(reference.empty());
    EXPECT_EQ(executed, nextId);
    EXPECT_EQ(q.executed(), nextId);
    EXPECT_GT(spawned, 100u);
}

} // namespace
} // namespace ladder
