/**
 * @file
 * Quickstart: the smallest useful tour of the LADDER public API.
 *
 * Builds the circuit-derived timing model, a content-true ReRAM
 * backing store and one memory controller running the LADDER-Est
 * scheme, then issues a handful of writes and reads and shows how the
 * RESET latency varies with where and what you write.
 *
 *   ./quickstart
 */

#include <cstdio>

#include "common/event_queue.hh"
#include "ctrl/controller.hh"
#include "schemes/factory.hh"

using namespace ladder;

int
main()
{
    // 1. The circuit model: Table-1 crossbar parameters in, write
    //    timing tables out (cached; ~0.3s the first time).
    CrossbarParams crossbar;
    const TimingModel &timing = cachedTimingModel(crossbar);
    std::printf("timing model: tWR envelope [%.0f, %.0f] ns, "
                "k = %.2f /V\n\n",
                timing.law.fastNs, timing.law.slowNs,
                timing.law.kPerVolt);

    // 2. The memory system: geometry, content-true store, metadata
    //    layout, and a controller running LADDER-Est on channel 0.
    MemoryGeometry geometry;
    EventQueue events;
    BackingStore store(geometry);
    AddressMap map(geometry);
    auto layout = std::make_shared<MetadataLayout>(
        geometry, map.totalPages() * 3 / 4);
    auto scheme = makeScheme(SchemeKind::LadderEst, timing, layout);
    MemoryController ctrl(events, ControllerConfig{}, geometry, 0,
                          store, timing, scheme);

    // 3. Write three lines with very different content to channel-0
    //    blocks at a near and a far crossbar location.
    auto channel0Page = [&](unsigned n) {
        unsigned found = 0;
        for (std::uint64_t p = 0;; ++p) {
            BlockLocation loc =
                map.decode(p * MemoryGeometry::pageBytes);
            if (loc.channel == 0 && (n ? loc.wordline > 400
                                       : loc.wordline < 32)) {
                if (found++ == n || n == 0)
                    return p * MemoryGeometry::pageBytes;
            }
        }
    };
    Addr nearAddr = channel0Page(0);
    Addr farAddr = channel0Page(1) + 63 * lineBytes;

    LineData sparse = filledLine(0x00);
    sparse[3] = 0x01;
    LineData dense = filledLine(0x6d);

    struct Probe
    {
        const char *what;
        Addr addr;
        LineData data;
    } probes[] = {
        {"sparse line, near row", nearAddr, sparse},
        {"dense line, near row", nearAddr + lineBytes, dense},
        {"sparse line, far row/col", farAddr, sparse},
    };
    for (const Probe &p : probes) {
        ctrl.enqueueWrite(p.addr, p.data);
        events.runUntil();
        BlockLocation loc = map.decode(p.addr);
        std::printf("write %-26s wl=%3u bl=%3u -> tWR %6.1f ns\n",
                    p.what, loc.wordline, loc.worstBitline(),
                    ctrl.writeLatencyOnlyNs.max());
        ctrl.writeLatencyOnlyNs.reset();
    }

    // 4. Read back through the full decode path (shifting undone,
    //    FNW inversion undone) and verify the content survived.
    bool ok = true;
    for (const Probe &p : probes) {
        LineData out{};
        ctrl.enqueueRead(p.addr, [&](const LineData &d, Tick) {
            out = d;
        });
        events.runUntil();
        ok = ok && out == p.data;
    }
    std::printf("\nread-back %s; metadata reads issued: %.0f, "
                "metadata writebacks: %.0f\n",
                ok ? "OK" : "CORRUPTED", ctrl.metadataReads.value(),
                ctrl.metadataWrites.value());
    return ok ? 0 : 1;
}
