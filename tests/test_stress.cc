/**
 * @file
 * Randomized stress tests: thousands of interleaved reads and writes
 * through the full controller (every scheme, wear-leveling on/off)
 * checked against a flat reference memory. Catches any corruption in
 * the encode/FNW/shift/remap/forwarding chain.
 */

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "common/rng.hh"
#include "ctrl/controller.hh"
#include "schemes/factory.hh"
#include "wear/start_gap.hh"

namespace ladder
{
namespace
{

struct StressRig
{
    EventQueue events;
    MemoryGeometry geo;
    BackingStore store;
    const TimingModel &timing;
    std::shared_ptr<MetadataLayout> layout;
    std::shared_ptr<WriteScheme> scheme;
    std::vector<std::unique_ptr<MemoryController>> controllers;
    std::unique_ptr<StartGapRemapper> remap;

    StressRig(SchemeKind kind, bool wearLeveling)
        : store(geo, true, 0.0),
          timing(cachedTimingModel(CrossbarParams{}))
    {
        AddressMap map(geo);
        layout = std::make_shared<MetadataLayout>(
            geo, map.totalPages() * 3 / 4);
        scheme = makeScheme(kind, timing, layout, {});
        for (unsigned ch = 0; ch < geo.channels; ++ch)
            controllers.push_back(
                std::make_unique<MemoryController>(
                    events, ControllerConfig{}, geo, ch, store,
                    timing, scheme));
        if (wearLeveling) {
            remap = std::make_unique<StartGapRemapper>(0, 4096, 16);
            for (auto &ctrl : controllers)
                ctrl->setRemapper(remap.get());
        }
    }

    MemoryController &
    route(Addr addr)
    {
        AddressMap map(geo);
        return *controllers[map.decode(addr).channel];
    }
};

using StressParam = std::tuple<SchemeKind, bool>;

class ControllerStress
    : public ::testing::TestWithParam<StressParam>
{
};

TEST_P(ControllerStress, RandomTrafficNeverCorruptsData)
{
    auto [kind, wearLeveling] = GetParam();
    StressRig rig(kind, wearLeveling);
    Rng rng(0xabcd + static_cast<unsigned>(kind));
    std::unordered_map<Addr, LineData> reference;

    constexpr unsigned lines = 2048; // spans many pages and banks
    unsigned mismatches = 0;
    for (int op = 0; op < 4000; ++op) {
        Addr addr = rng.nextBounded(lines) * lineBytes;
        if (rng.nextBool(0.55)) {
            LineData data;
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng.nextBounded(256));
            MemoryController &ctrl = rig.route(addr);
            if (!ctrl.canAcceptWrite())
                rig.events.runUntil(); // drain, then write
            ctrl.enqueueWrite(addr, data);
            reference[addr] = data;
        } else {
            auto it = reference.find(addr);
            if (it == reference.end())
                continue;
            LineData expect = it->second;
            MemoryController &ctrl = rig.route(addr);
            if (!ctrl.canAcceptRead())
                rig.events.runUntil();
            ctrl.enqueueRead(
                addr, [&mismatches, expect](const LineData &d,
                                            Tick) {
                    mismatches += d != expect;
                });
        }
        // Occasionally let the machine drain completely.
        if (rng.nextBool(0.02))
            rig.events.runUntil();
    }
    rig.events.runUntil();
    EXPECT_EQ(mismatches, 0u);

    // Final sweep: every line readable with its last-written value.
    unsigned checked = 0;
    for (const auto &entry : reference) {
        LineData out{};
        rig.route(entry.first)
            .enqueueRead(entry.first,
                         [&out](const LineData &d, Tick) { out = d; });
        rig.events.runUntil();
        ASSERT_EQ(out, entry.second) << "addr " << entry.first;
        ++checked;
    }
    EXPECT_GT(checked, 500u);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndWear, ControllerStress,
    ::testing::Values(
        StressParam{SchemeKind::Baseline, false},
        StressParam{SchemeKind::SplitReset, false},
        StressParam{SchemeKind::Blp, false},
        StressParam{SchemeKind::LadderBasic, false},
        StressParam{SchemeKind::LadderEst, false},
        StressParam{SchemeKind::LadderHybrid, false},
        StressParam{SchemeKind::Oracle, false},
        StressParam{SchemeKind::LadderEst, true},
        StressParam{SchemeKind::LadderHybrid, true},
        StressParam{SchemeKind::Baseline, true}));

TEST(ControllerStress, ReadsObserveLatestOfBackToBackWrites)
{
    StressRig rig(SchemeKind::LadderEst, false);
    Addr addr = 0;
    // Issue several writes to one line without draining, reading
    // between them: each read must observe the newest data.
    for (int round = 0; round < 10; ++round) {
        LineData v1 = filledLine(static_cast<std::uint8_t>(round));
        LineData v2 =
            filledLine(static_cast<std::uint8_t>(round + 100));
        rig.route(addr).enqueueWrite(addr, v1);
        rig.route(addr).enqueueWrite(addr, v2); // coalesces
        LineData seen{};
        rig.route(addr).enqueueRead(
            addr, [&seen](const LineData &d, Tick) { seen = d; });
        rig.events.runUntil();
        EXPECT_EQ(seen, v2) << "round " << round;
    }
}

} // namespace
} // namespace ladder
