/** @file Unit tests for the write-latency schemes. */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hh"
#include "ctrl/controller.hh"
#include "schemes/factory.hh"
#include "schemes/ladder_schemes.hh"
#include "schemes/simple_schemes.hh"
#include "schemes/split_reset.hh"

namespace ladder
{
namespace
{

struct SchemeRig
{
    EventQueue events;
    MemoryGeometry geo;
    BackingStore store;
    const TimingModel &timing;
    std::shared_ptr<MetadataLayout> layout;
    std::shared_ptr<WriteScheme> scheme;
    std::unique_ptr<MemoryController> ctrl;

    explicit SchemeRig(SchemeKind kind)
        : store(geo, true, 0.0),
          timing(cachedTimingModel(CrossbarParams{}))
    {
        AddressMap map(geo);
        layout = std::make_shared<MetadataLayout>(
            geo, map.totalPages() * 3 / 4);
        scheme = makeScheme(kind, timing, layout, {});
        ctrl = std::make_unique<MemoryController>(
            events, ControllerConfig{}, geo, 0, store, timing,
            scheme);
    }

    /** Dispatch-style decision for a fabricated entry. */
    WriteDecision
    decide(Addr addr, const LineData &data)
    {
        WriteEntry entry;
        entry.addr = addr;
        entry.data = data;
        entry.loc = ctrl->addressMap().decode(addr);
        scheme->onWriteEnqueued(*ctrl, entry);
        entry.physData = scheme->encodeData(addr, data);
        // Satisfy metadata presence for LADDER schemes.
        for (Addr metaAddr : entry.metaAddrs) {
            Addr victim;
            if (!ctrl->metadataCache().contains(metaAddr))
                ctrl->metadataCache().insert(metaAddr, 1, victim);
        }
        // The controller scans the store once per dispatch and hands
        // the counts to the scheme; mirror that contract here.
        entry.dispatchCw = store.maxMatLrsCount(entry.loc.pageIndex);
        entry.dispatchCbl = store.maxSelectedBitlineLrs(addr);
        return scheme->decideWrite(*ctrl, entry, entry.physData);
    }
};

/** A channel-0 data address at a given page offset. */
Addr
ch0Page(unsigned n)
{
    MemoryGeometry geo;
    AddressMap map(geo);
    unsigned found = 0;
    for (std::uint64_t p = 0;; ++p) {
        if (map.decode(p * 4096).channel == 0) {
            if (found == n)
                return p * 4096;
            ++found;
        }
    }
}

TEST(Schemes, FactoryNamesRoundTrip)
{
    for (SchemeKind kind : allSchemeKinds()) {
        EXPECT_EQ(schemeKindFromName(schemeKindName(kind)), kind);
    }
    EXPECT_EQ(allSchemeKinds().size(), 7u);
    EXPECT_THROW(schemeKindFromName("nonsense"), std::runtime_error);
}

TEST(Schemes, BaselineIsWorstCase)
{
    SchemeRig rig(SchemeKind::Baseline);
    WriteDecision d = rig.decide(ch0Page(0), filledLine(0));
    EXPECT_NEAR(d.latencyNs, 658.0, 1.0);
    // Identical everywhere.
    WriteDecision d2 = rig.decide(ch0Page(3) + 63 * lineBytes,
                                  filledLine(0xff));
    EXPECT_DOUBLE_EQ(d.latencyNs, d2.latencyNs);
}

TEST(Schemes, AllLatenciesWithinEnvelope)
{
    Rng rng(1);
    for (SchemeKind kind : allSchemeKinds()) {
        SchemeRig rig(kind);
        for (int i = 0; i < 10; ++i) {
            Addr addr = ch0Page(static_cast<unsigned>(
                            rng.nextBounded(8))) +
                        rng.nextBounded(64) * lineBytes;
            LineData data;
            for (auto &b : data)
                b = static_cast<std::uint8_t>(rng.nextBounded(256));
            WriteDecision d = rig.decide(addr, data);
            EXPECT_GE(d.latencyNs, 29.0) << schemeKindName(kind);
            // Split-reset may need two phases.
            EXPECT_LE(d.latencyNs, 2 * 658.0) << schemeKindName(kind);
        }
    }
}

TEST(Schemes, OracleNeverSlowerThanLocation)
{
    SchemeRig oracle(SchemeKind::Oracle);
    SchemeRig location(SchemeKind::Location);
    Rng rng(2);
    for (int i = 0; i < 20; ++i) {
        Addr addr =
            ch0Page(static_cast<unsigned>(rng.nextBounded(8))) +
            rng.nextBounded(64) * lineBytes;
        LineData data;
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.nextBounded(256));
        oracle.store.write(addr, data);
        location.store.write(addr, data);
        double to = oracle.decide(addr, data).latencyNs;
        double tl = location.decide(addr, data).latencyNs;
        EXPECT_LE(to, tl + 1e-9);
    }
}

TEST(Schemes, LadderEstNeverFasterThanOracle)
{
    // The estimate upper-bounds the true count, so Est's latency is
    // always sufficient (>= Oracle's at the same state).
    SchemeRig est(SchemeKind::LadderEstNoShift);
    SchemeRig oracle(SchemeKind::Oracle);
    Rng rng(3);
    Addr page = ch0Page(1);
    for (unsigned b = 0; b < 64; ++b) {
        LineData data;
        for (auto &byte : data)
            byte = static_cast<std::uint8_t>(rng.nextBounded(256));
        Addr addr = page + b * lineBytes;
        est.store.write(addr, data);
        oracle.store.write(addr, data);
    }
    LineData next = filledLine(0x33);
    double tEst = est.decide(page, next).latencyNs;
    double tOracle = oracle.decide(page, next).latencyNs;
    EXPECT_GE(tEst, tOracle - 1e-9);
}

TEST(Schemes, EstShiftingRoundTrips)
{
    auto layout = std::make_shared<MetadataLayout>(
        MemoryGeometry{}, 1000);
    LadderEstScheme scheme(layout, true);
    Rng rng(4);
    for (int i = 0; i < 100; ++i) {
        Addr addr = rng.nextBounded(1000) * lineBytes;
        LineData data;
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.nextBounded(256));
        LineData encoded = scheme.encodeData(addr, data);
        EXPECT_EQ(scheme.decodeData(addr, encoded), data);
        EXPECT_EQ(popcountLine(encoded), popcountLine(data));
    }
}

TEST(Schemes, EstShiftingIsAddressDependent)
{
    auto layout = std::make_shared<MetadataLayout>(
        MemoryGeometry{}, 1000);
    LadderEstScheme scheme(layout, true);
    LineData data;
    for (unsigned i = 0; i < lineBytes; ++i)
        data[i] = static_cast<std::uint8_t>(i * 17 + 3);
    LineData e1 = scheme.encodeData(0, data);
    LineData e2 = scheme.encodeData(lineBytes, data); // next block
    EXPECT_NE(e1, e2);
}

TEST(Schemes, NoShiftVariantIsIdentity)
{
    auto layout = std::make_shared<MetadataLayout>(
        MemoryGeometry{}, 1000);
    LadderEstScheme scheme(layout, false);
    LineData data = filledLine(0xa5);
    EXPECT_EQ(scheme.encodeData(64, data), data);
}

TEST(Schemes, SplitResetPhases)
{
    SchemeRig rig(SchemeKind::SplitReset);
    Addr addr = ch0Page(0);
    // Compressible (all-zero) line: one half-RESET phase.
    WriteDecision one = rig.decide(addr, filledLine(0x00));
    // Incompressible random line: two phases.
    Rng rng(5);
    LineData noisy;
    for (auto &b : noisy)
        b = static_cast<std::uint8_t>(rng.nextBounded(256));
    WriteDecision two = rig.decide(addr, noisy);
    EXPECT_NEAR(two.latencyNs, 2.0 * one.latencyNs, 1e-9);
    auto *sr = dynamic_cast<SplitResetScheme *>(rig.scheme.get());
    ASSERT_NE(sr, nullptr);
    EXPECT_EQ(sr->compressibleWrites.value(), 1.0);
    EXPECT_EQ(sr->incompressibleWrites.value(), 1.0);
}

TEST(Schemes, BlpUsesBitlineCounts)
{
    SchemeRig rig(SchemeKind::Blp);
    Addr addr = ch0Page(2);
    double sparse = rig.decide(addr, filledLine(0)).latencyNs;
    // Load the bitlines of this block's slot via sibling rows.
    MemoryGeometry geo;
    AddressMap map(geo);
    BlockLocation loc = map.decode(addr);
    for (unsigned w = 0; w < 200; ++w) {
        BlockLocation sibling = loc;
        sibling.wordline = (loc.wordline + 1 + w) % geo.matRows;
        rig.store.write(map.encode(sibling), filledLine(0xff));
    }
    double dense = rig.decide(addr, filledLine(0)).latencyNs;
    EXPECT_GT(dense, sparse);
}

TEST(Schemes, HybridUsesLowPrecisionNearDriver)
{
    SchemeRig rig(SchemeKind::LadderHybrid);
    MemoryGeometry geo;
    AddressMap map(geo);
    // Find channel-0 pages on a near and a far wordline.
    Addr nearAddr = invalidAddr, farAddr = invalidAddr;
    for (std::uint64_t p = 0; p < 4096; ++p) {
        BlockLocation loc = map.decode(p * 4096);
        if (loc.channel != 0)
            continue;
        if (loc.wordline < 128 && nearAddr == invalidAddr)
            nearAddr = p * 4096;
        if (loc.wordline >= 128 && farAddr == invalidAddr)
            farAddr = p * 4096;
    }
    WriteEntry nearEntry, farEntry;
    nearEntry.addr = nearAddr;
    nearEntry.loc = map.decode(nearAddr);
    farEntry.addr = farAddr;
    farEntry.loc = map.decode(farAddr);
    rig.scheme->onWriteEnqueued(*rig.ctrl, nearEntry);
    rig.scheme->onWriteEnqueued(*rig.ctrl, farEntry);
    ASSERT_EQ(nearEntry.metaAddrs.size(), 1u);
    ASSERT_EQ(farEntry.metaAddrs.size(), 1u);
    // Near pages use the shared low-precision region; far pages the
    // per-page Est lines.
    EXPECT_NE(nearEntry.metaAddrs[0],
              rig.layout->estLine(nearEntry.loc.pageIndex));
    EXPECT_EQ(farEntry.metaAddrs[0],
              rig.layout->estLine(farEntry.loc.pageIndex));
}

TEST(Schemes, ConstrainedFnwFlagOnlyForLadder)
{
    for (SchemeKind kind : allSchemeKinds()) {
        auto layout = std::make_shared<MetadataLayout>(
            MemoryGeometry{}, 1000);
        auto scheme = makeScheme(
            kind, cachedTimingModel(CrossbarParams{}), layout, {});
        bool isLadder = kind == SchemeKind::LadderBasic ||
                        kind == SchemeKind::LadderEst ||
                        kind == SchemeKind::LadderHybrid;
        EXPECT_EQ(scheme->constrainedFnw(), isLadder)
            << schemeKindName(kind);
    }
}

} // namespace
} // namespace ladder
