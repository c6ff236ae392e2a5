/**
 * @file
 * google-benchmark micro-kernels for the hot paths of the LADDER
 * stack: content counting, counter packing/estimation, FNW, timing
 * table lookups, the fast circuit model, the metadata cache and the
 * FPC compressor.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "circuit/fastmodel.hh"
#include "common/rng.hh"
#include "ctrl/controller.hh"
#include "ctrl/fnw.hh"
#include "ctrl/metadata_cache.hh"
#include "mem/backing_store.hh"
#include "reram/latency_surface.hh"
#include "reram/timing_tables.hh"
#include "schemes/factory.hh"
#include "schemes/fpc.hh"
#include "schemes/partial_counter.hh"

namespace
{

using namespace ladder;

LineData
randomLine(Rng &rng)
{
    LineData line;
    for (auto &byte : line)
        byte = static_cast<std::uint8_t>(rng.nextBounded(256));
    return line;
}

void
BM_PopcountLine(benchmark::State &state)
{
    Rng rng(1);
    LineData line = randomLine(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(popcountLine(line));
}
BENCHMARK(BM_PopcountLine);

void
BM_PackPartialCounters(benchmark::State &state)
{
    Rng rng(2);
    LineData line = randomLine(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(packPartialCounters2(line));
}
BENCHMARK(BM_PackPartialCounters);

void
BM_EstimateCw(benchmark::State &state)
{
    Rng rng(3);
    std::array<std::uint8_t, 64> packed;
    for (auto &byte : packed)
        byte = static_cast<std::uint8_t>(rng.nextBounded(256));
    for (auto _ : state)
        benchmark::DoNotOptimize(estimateCw2(packed));
}
BENCHMARK(BM_EstimateCw);

void
BM_ShiftEncode(benchmark::State &state)
{
    Rng rng(4);
    LineData line = randomLine(rng);
    for (auto _ : state) {
        LineData out = line;
        for (unsigned g = 0; g < 8; ++g) {
            transposeGroup(out, g);
            rotateGroupLeft(out, g, 13);
        }
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_ShiftEncode);

void
BM_FnwDecide(benchmark::State &state)
{
    Rng rng(5);
    LineData stored = randomLine(rng);
    LineData data = randomLine(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            fnwDecide(stored, data, FnwMode::Constrained));
}
BENCHMARK(BM_FnwDecide);

void
BM_TimingTableLookup(benchmark::State &state)
{
    const TimingModel &model = cachedTimingModel(CrossbarParams{});
    Rng rng(6);
    for (auto _ : state) {
        unsigned wl = static_cast<unsigned>(rng.nextBounded(512));
        unsigned bl = static_cast<unsigned>(rng.nextBounded(512));
        unsigned c = static_cast<unsigned>(rng.nextBounded(513));
        benchmark::DoNotOptimize(model.ladder.lookup(wl, bl, c));
    }
}
BENCHMARK(BM_TimingTableLookup);

void
BM_LatencySurfaceLookup(benchmark::State &state)
{
    const TimingModel &model = cachedTimingModel(CrossbarParams{});
    Rng rng(6);
    for (auto _ : state) {
        unsigned wl = static_cast<unsigned>(rng.nextBounded(512));
        unsigned bl = static_cast<unsigned>(rng.nextBounded(512));
        unsigned c = static_cast<unsigned>(rng.nextBounded(513));
        benchmark::DoNotOptimize(model.ladderSurface->lookup(wl, bl, c));
    }
}
BENCHMARK(BM_LatencySurfaceLookup);

void
BM_PopcountLineScalar(benchmark::State &state)
{
    Rng rng(1);
    LineData line = randomLine(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(popcountLineScalar(line));
}
BENCHMARK(BM_PopcountLineScalar);

void
BM_CountTransitions(benchmark::State &state)
{
    Rng rng(10);
    LineData before = randomLine(rng);
    LineData after = randomLine(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(countTransitions(before, after));
}
BENCHMARK(BM_CountTransitions);

void
BM_FastModelEvaluate(benchmark::State &state)
{
    CrossbarParams params;
    SneakPathModel model(params);
    for (auto _ : state) {
        ResetCondition cond{255, 31, 256, 256};
        benchmark::DoNotOptimize(model.evaluate(cond));
    }
}
BENCHMARK(BM_FastModelEvaluate)->Unit(benchmark::kMicrosecond);

void
BM_MetadataCacheLookup(benchmark::State &state)
{
    MetadataCache cache(64 * 1024, 4);
    Rng rng(7);
    Addr victim;
    for (unsigned i = 0; i < 2048; ++i)
        cache.insert(i * lineBytes, 0, victim);
    for (auto _ : state) {
        Addr addr = rng.nextBounded(4096) * lineBytes;
        MetaLookup result = cache.lookupForWrite(addr);
        if (result == MetaLookup::Hit)
            cache.releaseSharer(addr);
        else if (result == MetaLookup::Miss)
            cache.insert(addr, 0, victim);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_MetadataCacheLookup);

void
BM_FpcCompress(benchmark::State &state)
{
    Rng rng(8);
    LineData line = randomLine(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(fpcCompressedBits(line));
}
BENCHMARK(BM_FpcCompress);

void
BM_BackingStoreWrite(benchmark::State &state)
{
    BackingStore store(MemoryGeometry{}, true, 0.0);
    Rng rng(9);
    std::vector<LineData> lines;
    for (int i = 0; i < 64; ++i)
        lines.push_back(randomLine(rng));
    std::uint64_t i = 0;
    for (auto _ : state) {
        Addr addr = (i % 4096) * lineBytes;
        benchmark::DoNotOptimize(
            store.write(addr, lines[i % lines.size()]));
        ++i;
    }
}
BENCHMARK(BM_BackingStoreWrite);

/**
 * First touch of a page: the initializer copies one of 16 random pages,
 * then the store folds it into the mat and bitline counters. A fresh
 * store replaces the full one every 4096 pages, outside the timing.
 */
void
BM_BackingStoreMaterialize(benchmark::State &state)
{
    Rng rng(13);
    std::vector<PageContent> pool(16);
    for (auto &page : pool)
        for (auto &block : page.blocks)
            block = randomLine(rng);
    auto init = [&pool](std::uint64_t page, PageContent &c) {
        c.blocks = pool[page % pool.size()].blocks;
    };
    auto store = std::make_unique<BackingStore>(MemoryGeometry{}, true, 0.0);
    store->setPageInitializer(init);
    std::uint64_t page = 0;
    for (auto _ : state) {
        if (page == 4096) {
            state.PauseTiming();
            store = std::make_unique<BackingStore>(MemoryGeometry{}, true,
                                                   0.0);
            store->setPageInitializer(init);
            page = 0;
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(
            store->read(page++ * MemoryGeometry::pageBytes));
    }
}
BENCHMARK(BM_BackingStoreMaterialize);

/**
 * The store work of one data-write dispatch: resolve the line once,
 * then scan its page's wordline counters and its block's 512 bitline
 * counters. Addresses cycle over 256 resident pages in 64 mat groups.
 */
void
BM_BackingStoreDispatchScan(benchmark::State &state)
{
    BackingStore store(MemoryGeometry{}, true, 0.4);
    store.setPageInitializer([](std::uint64_t page, PageContent &c) {
        Rng rng(page + 1);
        for (auto &block : c.blocks)
            block = randomLine(rng);
    });
    Rng rng(12);
    std::vector<Addr> addrs;
    for (int i = 0; i < 1024; ++i)
        addrs.push_back(rng.nextBounded(256) * MemoryGeometry::pageBytes +
                        rng.nextBounded(64) * lineBytes);
    std::size_t i = 0;
    for (auto _ : state) {
        const StoreLine line = store.line(addrs[i++ % addrs.size()]);
        benchmark::DoNotOptimize(store.maxMatLrsCount(line));
        benchmark::DoNotOptimize(store.maxSelectedBitlineLrs(line));
    }
}
BENCHMARK(BM_BackingStoreDispatchScan);

/**
 * Event kernel schedule + drain, 64 events per batch at scattered
 * ticks: Arg 0 captures a pointer and a slot number (the controller's
 * completions), Arg 1 a whole WriteEntry (a heap-allocated capture).
 */
void
BM_EventQueueScheduleDrain(benchmark::State &state)
{
    EventQueue queue;
    WriteEntry entry;
    entry.id = static_cast<std::uint64_t>(state.range(0)) + 1;
    std::uint64_t sum = 0, executed = 0;
    for (auto _ : state) {
        for (std::uint32_t i = 0; i < 64; ++i) {
            const Tick when = queue.now() + 1 + (i * 37u) % 64;
            if (state.range(0) == 0)
                queue.schedule(when, [&sum, i]() { sum += i; });
            else
                queue.schedule(when, [&sum, entry]() { sum += entry.id; });
        }
        executed += queue.runUntil();
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(static_cast<std::int64_t>(executed));
}
BENCHMARK(BM_EventQueueScheduleDrain)->Arg(0)->Arg(1);

/**
 * Full controller write path — enqueue through dispatch to
 * completion — with the latency-attribution knob off (Arg 0) and on
 * (Arg 1). The two timings bound what trace.attribution=1 costs per
 * write; the Arg-0 run must match the pre-attribution controller,
 * since the knob off leaves only an untaken branch on the dispatch
 * path.
 */
void
BM_ControllerWriteDispatch(benchmark::State &state)
{
    ControllerConfig cfg;
    cfg.attribution = state.range(0) != 0;
    MemoryGeometry geo;
    BackingStore store(geo, true, 0.0);
    const TimingModel &timing = cachedTimingModel(CrossbarParams{});
    AddressMap map(geo);
    auto layout = std::make_shared<MetadataLayout>(
        geo, map.totalPages() * 3 / 4);
    auto scheme =
        makeScheme(SchemeKind::LadderHybrid, timing, layout, {});
    EventQueue events;
    MemoryController ctrl(events, cfg, geo, 0, store, timing,
                          scheme);

    // Channel-0 line addresses spread over wordlines and banks.
    Rng rng(11);
    std::vector<std::pair<Addr, LineData>> writes;
    while (writes.size() < 16) {
        Addr addr = rng.nextBounded(1 << 16) * lineBytes;
        if (map.decode(addr).channel == 0)
            writes.emplace_back(addr, randomLine(rng));
    }

    std::uint64_t dispatched = 0;
    for (auto _ : state) {
        for (const auto &write : writes)
            ctrl.enqueueWrite(write.first, write.second);
        events.runUntil();
        dispatched += writes.size();
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(dispatched));
}
BENCHMARK(BM_ControllerWriteDispatch)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
