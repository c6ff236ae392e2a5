/** @file Integration tests for the memory controller. */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hh"
#include "ctrl/controller.hh"
#include "schemes/factory.hh"
#include "schemes/ladder_schemes.hh"

namespace ladder
{
namespace
{

struct Rig
{
    EventQueue events;
    MemoryGeometry geo;
    BackingStore store;
    const TimingModel &timing;
    std::shared_ptr<MetadataLayout> layout;
    std::vector<std::unique_ptr<MemoryController>> controllers;

    explicit Rig(SchemeKind kind,
                 ControllerConfig cfg = ControllerConfig{})
        : store(geo, true, 0.0),
          timing(cachedTimingModel(CrossbarParams{}))
    {
        AddressMap map(geo);
        layout = std::make_shared<MetadataLayout>(
            geo, map.totalPages() * 3 / 4);
        auto scheme =
            makeScheme(kind, timing, layout, {});
        for (unsigned ch = 0; ch < geo.channels; ++ch)
            controllers.push_back(
                std::make_unique<MemoryController>(
                    events, cfg, geo, ch, store, timing, scheme));
    }

    MemoryController &
    route(Addr addr)
    {
        AddressMap map(geo);
        return *controllers[map.decode(addr).channel];
    }

    /** Blocking read helper. */
    LineData
    readNow(Addr addr)
    {
        LineData out{};
        bool done = false;
        route(addr).enqueueRead(addr,
                                [&](const LineData &d, Tick) {
                                    out = d;
                                    done = true;
                                });
        events.runUntil();
        EXPECT_TRUE(done);
        return out;
    }
};

LineData
patternLine(std::uint8_t seed)
{
    LineData line;
    for (unsigned i = 0; i < lineBytes; ++i)
        line[i] = static_cast<std::uint8_t>(seed + i * 7);
    return line;
}

class RoundTrip : public ::testing::TestWithParam<SchemeKind>
{
};

TEST_P(RoundTrip, WriteThenReadReturnsData)
{
    Rig rig(GetParam());
    Rng rng(1);
    std::vector<std::pair<Addr, LineData>> writes;
    for (int i = 0; i < 40; ++i) {
        Addr addr = rng.nextBounded(4096) * lineBytes;
        LineData data = patternLine(
            static_cast<std::uint8_t>(rng.nextBounded(256)));
        writes.emplace_back(addr, data);
        rig.route(addr).enqueueWrite(addr, data);
    }
    rig.events.runUntil();
    // Last write to each address wins.
    std::unordered_map<Addr, LineData> expect;
    for (auto &w : writes)
        expect[w.first] = w.second;
    for (auto &w : expect)
        EXPECT_EQ(rig.readNow(w.first), w.second)
            << "addr " << w.first;
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, RoundTrip,
    ::testing::Values(SchemeKind::Baseline, SchemeKind::Location,
                      SchemeKind::SplitReset, SchemeKind::Blp,
                      SchemeKind::LadderBasic, SchemeKind::LadderEst,
                      SchemeKind::LadderEstNoShift,
                      SchemeKind::LadderHybrid, SchemeKind::Oracle));

TEST(Controller, ReadForwardsFromWriteQueue)
{
    Rig rig(SchemeKind::Baseline);
    Addr addr = 128 * lineBytes;
    LineData data = patternLine(9);
    rig.route(addr).enqueueWrite(addr, data);
    // Read immediately: must forward the queued write's data quickly.
    LineData out{};
    Tick when = 0;
    rig.route(addr).enqueueRead(addr, [&](const LineData &d, Tick t) {
        out = d;
        when = t;
    });
    rig.events.runUntil();
    EXPECT_EQ(out, data);
    EXPECT_LE(when, nsToTicks(20.0)); // ~tCL, not a full write wait
}

TEST(Controller, CoalescesQueuedWrites)
{
    Rig rig(SchemeKind::Baseline);
    Addr addr = 999 * lineBytes;
    rig.route(addr).enqueueWrite(addr, patternLine(1));
    rig.route(addr).enqueueWrite(addr, patternLine(2));
    rig.events.runUntil();
    MemoryController &ctrl = rig.route(addr);
    EXPECT_EQ(ctrl.dataWrites.value(), 1.0);
    EXPECT_EQ(rig.readNow(addr), patternLine(2));
}

TEST(Controller, QueueCapacityIsEnforced)
{
    Rig rig(SchemeKind::Baseline);
    MemoryController &ctrl = *rig.controllers[0];
    // Fill the write queue without running the clock.
    AddressMap map(rig.geo);
    unsigned accepted = 0;
    for (std::uint64_t i = 0; i < 10000 && ctrl.canAcceptWrite();
         ++i) {
        Addr addr = i * lineBytes * 2;
        if (map.decode(addr).channel != 0)
            continue;
        ctrl.enqueueWrite(addr, patternLine(0));
        ++accepted;
    }
    EXPECT_FALSE(ctrl.canAcceptWrite());
    EXPECT_EQ(accepted, 64u);
    EXPECT_THROW(ctrl.enqueueWrite(0, patternLine(0)),
                 std::logic_error);
    // Draining frees space and fires retry listeners.
    bool retried = false;
    ctrl.addRetryListener([&]() { retried = true; });
    rig.events.runUntil();
    EXPECT_TRUE(ctrl.canAcceptWrite());
    EXPECT_TRUE(retried);
}

TEST(Controller, BaselineUsesWorstCaseLatency)
{
    Rig rig(SchemeKind::Baseline);
    Addr addr = 0;
    rig.route(addr).enqueueWrite(addr, patternLine(3));
    rig.events.runUntil();
    MemoryController &ctrl = rig.route(addr);
    EXPECT_NEAR(ctrl.writeLatencyOnlyNs.mean(), 658.0, 1.0);
}

TEST(Controller, LocationSchemeFasterOnNearRows)
{
    // Page 0 decodes to wordline 0 (near); compare with a far page.
    Rig near(SchemeKind::Location);
    Rig far(SchemeKind::Location);
    MemoryGeometry geo;
    AddressMap map(geo);
    // Find pages with wordline 0 and 511 on channel 0.
    Addr nearAddr = invalidAddr, farAddr = invalidAddr;
    for (std::uint64_t p = 0; p < 4096; ++p) {
        BlockLocation loc = map.decode(p * 4096);
        if (loc.channel != 0)
            continue;
        if (loc.wordline == 0 && nearAddr == invalidAddr)
            nearAddr = p * 4096;
        if (loc.wordline == 511 && farAddr == invalidAddr)
            farAddr = p * 4096 + 63 * lineBytes;
    }
    ASSERT_NE(nearAddr, invalidAddr);
    ASSERT_NE(farAddr, invalidAddr);
    near.route(nearAddr).enqueueWrite(nearAddr, patternLine(1));
    near.events.runUntil();
    far.route(farAddr).enqueueWrite(farAddr, patternLine(1));
    far.events.runUntil();
    EXPECT_LT(near.route(nearAddr).writeLatencyOnlyNs.mean(),
              far.route(farAddr).writeLatencyOnlyNs.mean());
}

TEST(Controller, LadderBasicIssuesSmbAndMetadataReads)
{
    Rig rig(SchemeKind::LadderBasic);
    Addr addr = 512 * lineBytes;
    rig.route(addr).enqueueWrite(addr, patternLine(5));
    rig.events.runUntil();
    MemoryController &ctrl = rig.route(addr);
    EXPECT_EQ(ctrl.smbReads.value(), 1.0);
    EXPECT_EQ(ctrl.metadataReads.value(), 2.0); // two half-lines
    EXPECT_EQ(ctrl.dataWrites.value(), 1.0);
}

TEST(Controller, LadderEstIssuesOneMetadataRead)
{
    Rig rig(SchemeKind::LadderEst);
    Addr addr = 512 * lineBytes;
    rig.route(addr).enqueueWrite(addr, patternLine(5));
    rig.events.runUntil();
    MemoryController &ctrl = rig.route(addr);
    EXPECT_EQ(ctrl.smbReads.value(), 0.0);
    EXPECT_EQ(ctrl.metadataReads.value(), 1.0);
}

TEST(Controller, MetadataCacheHitsAvoidRefills)
{
    Rig rig(SchemeKind::LadderEst);
    // Two writes to the same page share the metadata line.
    Addr page = 4096 * 8;
    rig.route(page).enqueueWrite(page, patternLine(1));
    rig.route(page).enqueueWrite(page + lineBytes, patternLine(2));
    rig.events.runUntil();
    MemoryController &ctrl = rig.route(page);
    EXPECT_EQ(ctrl.metadataReads.value(), 1.0);
}

TEST(Controller, OracleFasterThanBaselineOnSparseData)
{
    Rig base(SchemeKind::Baseline);
    Rig oracle(SchemeKind::Oracle);
    Addr addr = 0;
    LineData sparse = filledLine(0x00);
    sparse[0] = 1;
    base.route(addr).enqueueWrite(addr, sparse);
    base.events.runUntil();
    oracle.route(addr).enqueueWrite(addr, sparse);
    oracle.events.runUntil();
    EXPECT_LT(oracle.route(addr).writeLatencyOnlyNs.mean(),
              base.route(addr).writeLatencyOnlyNs.mean());
}

TEST(Controller, FunctionalAccessRoundTrip)
{
    Rig rig(SchemeKind::LadderEst);
    Addr addr = 777 * lineBytes;
    LineData data = patternLine(42);
    rig.route(addr).functionalWrite(addr, data);
    EXPECT_EQ(rig.route(addr).functionalRead(addr), data);
    // Timed read agrees with functional write.
    EXPECT_EQ(rig.readNow(addr), data);
    // No timed stats were touched by the functional write.
    EXPECT_EQ(rig.route(addr).dataWrites.value(), 0.0);
}

TEST(Controller, ReadLatencyIncludesQueueing)
{
    Rig rig(SchemeKind::Baseline);
    // Saturate one bank with reads; later ones must queue.
    MemoryGeometry geo;
    AddressMap map(geo);
    Addr page = invalidAddr;
    for (std::uint64_t p = 0; p < 64; ++p) {
        if (map.decode(p * 4096).channel == 0) {
            page = p * 4096;
            break;
        }
    }
    ASSERT_NE(page, invalidAddr);
    MemoryController &ctrl = rig.route(page);
    unsigned issued = 0;
    for (unsigned i = 0; i < 8; ++i) {
        ctrl.enqueueRead(page + i * lineBytes,
                         [](const LineData &, Tick) {});
        ++issued;
    }
    rig.events.runUntil();
    // Same bank: the mean is well above a single service time.
    EXPECT_GT(ctrl.readLatencyNs.mean(), 32.5);
    EXPECT_EQ(ctrl.dataReads.value(), static_cast<double>(issued));
}

TEST(Controller, InjectedWritesBypassAdmission)
{
    Rig rig(SchemeKind::Baseline);
    MemoryController &ctrl = *rig.controllers[0];
    AddressMap map(rig.geo);
    Addr addr = invalidAddr;
    for (std::uint64_t i = 0; i < 64; ++i) {
        if (map.decode(i * lineBytes).channel == 0) {
            addr = i * lineBytes;
            break;
        }
    }
    ctrl.injectPhysicalWrite(addr, patternLine(8));
    rig.events.runUntil();
    EXPECT_EQ(ctrl.dataWrites.value(), 1.0);
}

} // namespace
} // namespace ladder
