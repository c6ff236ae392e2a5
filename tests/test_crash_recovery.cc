/**
 * @file
 * Tests for the §7 lazy LRS-metadata correction: after a simulated
 * crash every estimate is pessimized to the maximum, stays safe, and
 * re-tightens as blocks are rewritten.
 */

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
    std::shared_ptr<WriteScheme> scheme;
    std::unique_ptr<MemoryController> ctrl;

    explicit Rig(SchemeKind kind)
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

    double
    writeAndGetTwr(Addr addr, const LineData &data)
    {
        ctrl->writeLatencyOnlyNs.reset();
        ctrl->enqueueWrite(addr, data);
        events.runUntil();
        return ctrl->writeLatencyOnlyNs.max();
    }
};

Addr
ch0Addr()
{
    MemoryGeometry geo;
    AddressMap map(geo);
    for (std::uint64_t p = 0;; ++p) {
        if (map.decode(p * MemoryGeometry::pageBytes).channel == 0)
            return p * MemoryGeometry::pageBytes;
    }
}

TEST(CrashRecovery, EstimatesPessimizedThenReTightened)
{
    Rig rig(SchemeKind::LadderEst);
    auto *est = dynamic_cast<LadderEstScheme *>(rig.scheme.get());
    ASSERT_NE(est, nullptr);
    Addr page = ch0Addr();

    LineData sparse = filledLine(0x00);
    sparse[0] = 0x01;
    double before = rig.writeAndGetTwr(page, sparse);

    est->crashRecover();
    // Immediately after recovery the same write pays the worst-case
    // content latency for its location.
    double recovered =
        rig.writeAndGetTwr(page + lineBytes, sparse);
    EXPECT_GT(recovered, before);

    // Rewriting every block of the page tightens the estimate again.
    for (unsigned b = 0; b < 64; ++b)
        rig.writeAndGetTwr(page + b * lineBytes, sparse);
    double tightened = rig.writeAndGetTwr(page, sparse);
    EXPECT_LE(tightened, before + 1e-9);
}

TEST(CrashRecovery, HybridPessimizesBothPrecisions)
{
    Rig rig(SchemeKind::LadderHybrid);
    auto *hybrid =
        dynamic_cast<LadderHybridScheme *>(rig.scheme.get());
    ASSERT_NE(hybrid, nullptr);
    MemoryGeometry geo;
    AddressMap map(geo);
    // One near (low-precision) and one far (Est-precision) page.
    Addr nearAddr = invalidAddr, farAddr = invalidAddr;
    for (std::uint64_t p = 0; p < 8192; ++p) {
        BlockLocation loc = map.decode(p * MemoryGeometry::pageBytes);
        if (loc.channel != 0)
            continue;
        if (loc.wordline < hybrid->lowRows() &&
            nearAddr == invalidAddr)
            nearAddr = p * MemoryGeometry::pageBytes;
        if (loc.wordline >= hybrid->lowRows() &&
            farAddr == invalidAddr)
            farAddr = p * MemoryGeometry::pageBytes;
    }
    LineData sparse = filledLine(0x00);
    double nearBefore = rig.writeAndGetTwr(nearAddr, sparse);
    double farBefore = rig.writeAndGetTwr(farAddr, sparse);
    hybrid->crashRecover();
    EXPECT_GE(rig.writeAndGetTwr(nearAddr + lineBytes, sparse),
              nearBefore - 1e-9);
    EXPECT_GT(rig.writeAndGetTwr(farAddr + lineBytes, sparse),
              farBefore);
}

TEST(CrashRecovery, DataIntegrityUnaffected)
{
    Rig rig(SchemeKind::LadderEst);
    auto *est = dynamic_cast<LadderEstScheme *>(rig.scheme.get());
    Addr addr = ch0Addr() + 5 * lineBytes;
    Rng rng(3);
    LineData data;
    for (auto &b : data)
        b = static_cast<std::uint8_t>(rng.nextBounded(256));
    rig.ctrl->enqueueWrite(addr, data);
    rig.events.runUntil();
    est->crashRecover();
    LineData out{};
    rig.ctrl->enqueueRead(addr, [&](const LineData &d, Tick) {
        out = d;
    });
    rig.events.runUntil();
    EXPECT_EQ(out, data);
}

} // namespace
} // namespace ladder
