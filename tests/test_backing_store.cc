/** @file Tests for the content-true backing store. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <vector>

#include "common/rng.hh"
#include "mem/backing_store.hh"

namespace ladder
{
namespace
{

LineData
randomLine(Rng &rng)
{
    LineData line;
    for (auto &byte : line)
        byte = static_cast<std::uint8_t>(rng.nextBounded(256));
    return line;
}

TEST(BackingStore, ReadAfterWrite)
{
    BackingStore store(MemoryGeometry{}, true, 0.0);
    Rng rng(1);
    LineData data = randomLine(rng);
    store.write(0x1000, data);
    EXPECT_EQ(store.read(0x1000), data);
}

TEST(BackingStore, FreshPagesAreZeroWithoutInitializer)
{
    BackingStore store(MemoryGeometry{}, true, 0.0);
    EXPECT_EQ(popcountLine(store.read(0x40)), 0u);
}

TEST(BackingStore, PageInitializerRuns)
{
    BackingStore store(MemoryGeometry{}, true, 0.0);
    store.setPageInitializer(
        [](std::uint64_t page, PageContent &content) {
            if (page == 3)
                content.blocks[0].fill(0xff);
        });
    Addr addr = 3 * MemoryGeometry::pageBytes;
    EXPECT_EQ(popcountLine(store.read(addr)), 512u);
    EXPECT_TRUE(store.pageResident(3));
    EXPECT_FALSE(store.pageResident(4));
}

/** C_j of a page recounted byte by byte from its blocks. */
unsigned
recountMat(BackingStore &store, std::uint64_t page, unsigned mat)
{
    const Addr base = page * MemoryGeometry::pageBytes;
    unsigned count = 0;
    for (unsigned b = 0; b < MemoryGeometry::blocksPerPage; ++b)
        count += static_cast<unsigned>(
            std::popcount(store.read(base + b * lineBytes)[mat]));
    return count;
}

TEST(BackingStore, MatCountsTrackContent)
{
    // First-touch content: zero (no initializer), random, and all-ones,
    // where every mat count is 512 (beyond an 8-bit lane).
    const std::vector<BackingStore::PageInitializer> inits = {
        nullptr,
        [](std::uint64_t page, PageContent &c) {
            Rng rng(page);
            for (auto &block : c.blocks)
                block = randomLine(rng);
        },
        [](std::uint64_t, PageContent &c) {
            for (auto &block : c.blocks)
                block.fill(0xff);
        },
    };
    for (size_t n = 0; n < inits.size(); ++n) {
        BackingStore store(MemoryGeometry{}, true, 0.0);
        store.setPageInitializer(inits[n]);
        Rng rng(2);
        const std::uint64_t page = 7;
        const Addr base = page * MemoryGeometry::pageBytes;
        // Check the counters from first touch, then after random
        // overwrites of every block.
        for (int round = 0; round < 2; ++round) {
            unsigned maxCount = 0;
            for (unsigned mat = 0; mat < 64; ++mat) {
                const unsigned expect = recountMat(store, page, mat);
                EXPECT_EQ(store.matLrsCount(page, mat), expect)
                    << "init " << n << " round " << round << " mat "
                    << mat;
                maxCount = std::max(maxCount, expect);
            }
            EXPECT_EQ(store.maxMatLrsCount(page), maxCount);
            for (unsigned b = 0; b < 64; ++b)
                store.write(base + b * lineBytes, randomLine(rng));
        }
    }
}

TEST(BackingStore, MatCountsSurviveOverwrites)
{
    BackingStore store(MemoryGeometry{}, true, 0.0);
    Rng rng(3);
    Addr addr = 11 * MemoryGeometry::pageBytes + 5 * lineBytes;
    for (int i = 0; i < 20; ++i)
        store.write(addr, randomLine(rng));
    LineData last = store.read(addr);
    unsigned expect = 0;
    for (unsigned mat = 0; mat < 64; ++mat)
        expect = std::max(expect, popcount8(last[mat]) + 0u);
    // Only block 5 is nonzero in this page, so C_w is its worst byte.
    EXPECT_EQ(store.maxMatLrsCount(11), expect);
}

TEST(BackingStore, BitlineCountsTrackContent)
{
    MemoryGeometry geo;
    BackingStore store(geo, true, 0.0);
    AddressMap map(geo);
    Rng rng(4);
    // Two pages in the same mat group share bitline counters: find
    // two such pages.
    BlockLocation locA = map.decode(0);
    BlockLocation locB = locA;
    locB.wordline = locA.wordline + 1;
    Addr pageA = 0;
    Addr pageB = map.encode(locB) - locB.blockInPage * lineBytes;

    LineData a = randomLine(rng);
    LineData b = randomLine(rng);
    store.write(pageA, a);      // block 0 of page A
    store.write(pageB, b);      // block 0 of page B
    unsigned expect = 0;
    for (unsigned mat = 0; mat < 64; ++mat) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            unsigned count = ((a[mat] >> bit) & 1) +
                             ((b[mat] >> bit) & 1);
            expect = std::max(expect, count);
        }
    }
    EXPECT_EQ(store.maxSelectedBitlineLrs(pageA), expect);
}

TEST(BackingStore, BackgroundDensityOffsetsBitlines)
{
    MemoryGeometry geo;
    BackingStore dense(geo, true, 0.25);
    BackingStore empty(geo, true, 0.0);
    Rng rng(5);
    LineData data = randomLine(rng);
    dense.write(0, data);
    empty.write(0, data);
    unsigned background =
        static_cast<unsigned>(0.25 * geo.matRows);
    EXPECT_EQ(dense.maxSelectedBitlineLrs(0),
              empty.maxSelectedBitlineLrs(0) + background);
}

TEST(BackingStore, WriteReturnsTransitions)
{
    BackingStore store(MemoryGeometry{}, true, 0.0);
    LineData ones = filledLine(0xff);
    BitTransitions t1 = store.write(0, ones);
    EXPECT_EQ(t1.sets, 512u);
    EXPECT_EQ(t1.resets, 0u);
    LineData zeros = filledLine(0x00);
    BitTransitions t2 = store.write(0, zeros);
    EXPECT_EQ(t2.resets, 512u);
    EXPECT_EQ(t2.sets, 0u);
}

TEST(BackingStore, FlipFlagPerBlock)
{
    BackingStore store(MemoryGeometry{}, true, 0.0);
    EXPECT_FALSE(store.flipped(0x40));
    store.setFlipped(0x40, true);
    EXPECT_TRUE(store.flipped(0x40));
    EXPECT_FALSE(store.flipped(0x80));
    store.setFlipped(0x40, false);
    EXPECT_FALSE(store.flipped(0x40));
}

TEST(BackingStore, ResidentPageCount)
{
    BackingStore store(MemoryGeometry{}, true, 0.0);
    EXPECT_EQ(store.residentPages(), 0u);
    store.read(0);
    store.read(MemoryGeometry::pageBytes);
    store.read(MemoryGeometry::pageBytes + lineBytes); // same page
    EXPECT_EQ(store.residentPages(), 2u);
}

TEST(BackingStore, BitlineTrackingCanBeDisabled)
{
    BackingStore store(MemoryGeometry{}, false, 0.0);
    store.write(0, filledLine(0xff));
    EXPECT_THROW(store.maxSelectedBitlineLrs(0), std::logic_error);
}

TEST(BackingStore, HandleAndAddressCallsAgree)
{
    MemoryGeometry geo;
    BackingStore byHandle(geo, true, 0.4);
    BackingStore byAddress(geo, true, 0.4);
    auto init = [](std::uint64_t page, PageContent &content) {
        Rng rng(page + 1);
        for (auto &block : content.blocks)
            block = randomLine(rng);
    };
    byHandle.setPageInitializer(init);
    byAddress.setPageInitializer(init);
    Rng rng(6);
    for (int i = 0; i < 2000; ++i) {
        const Addr addr =
            rng.nextBounded(48) * MemoryGeometry::pageBytes +
            rng.nextBounded(MemoryGeometry::blocksPerPage) * lineBytes;
        const LineData data = randomLine(rng);
        const bool flip = rng.nextBool(0.5);

        const StoreLine line = byHandle.line(addr);
        EXPECT_EQ(byHandle.read(line), byAddress.read(addr));
        EXPECT_EQ(byHandle.flipped(line), byAddress.flipped(addr));
        EXPECT_EQ(byHandle.maxMatLrsCount(line),
                  byAddress.maxMatLrsCount(addr /
                                           MemoryGeometry::pageBytes));
        EXPECT_EQ(byHandle.maxSelectedBitlineLrs(line),
                  byAddress.maxSelectedBitlineLrs(addr));
        byHandle.setFlipped(line, flip);
        byAddress.setFlipped(addr, flip);
        const BitTransitions a = byHandle.write(line, data);
        const BitTransitions b = byAddress.write(addr, data);
        EXPECT_EQ(a.sets, b.sets);
        EXPECT_EQ(a.resets, b.resets);
        EXPECT_EQ(byHandle.read(line), data);
    }
    EXPECT_EQ(byHandle.residentPages(), byAddress.residentPages());
}

TEST(BackingStore, SelectedBitlinesMatchBruteForceCount)
{
    // Two pages of one mat group plus a page of another group, all
    // with random first-touch content and then random writes. The
    // incremental counters must equal a recount over every resident
    // page of the group plus the background rows.
    MemoryGeometry geo;
    const double density = 0.4;
    BackingStore store(geo, true, density);
    store.setPageInitializer([](std::uint64_t page, PageContent &c) {
        Rng rng(page * 31 + 7);
        for (auto &block : c.blocks)
            block = randomLine(rng);
    });
    AddressMap map(geo);
    BlockLocation locB = map.decode(0);
    locB.wordline = (locB.wordline + 5) % geo.matRows;
    BlockLocation locOther = map.decode(0);
    locOther.matGroup += 4; // same subarray slot, next group slice
    const Addr pages[] = {0, map.encode(locB), map.encode(locOther)};

    Rng rng(8);
    for (int i = 0; i < 300; ++i) {
        const Addr page = pages[rng.nextBounded(3)];
        store.write(page + rng.nextBounded(64) * lineBytes,
                    randomLine(rng));
    }
    const auto background =
        static_cast<unsigned>(density * static_cast<double>(geo.matRows));
    for (unsigned b = 0; b < MemoryGeometry::blocksPerPage; ++b) {
        unsigned expect = 0;
        for (unsigned mat = 0; mat < 64; ++mat) {
            for (unsigned bit = 0; bit < 8; ++bit) {
                unsigned count = background;
                for (Addr page : {pages[0], pages[1]})
                    count += (store.read(page + b * lineBytes)[mat] >>
                              bit) & 1;
                expect = std::max(expect, count);
            }
        }
        EXPECT_EQ(store.maxSelectedBitlineLrs(pages[0] + b * lineBytes),
                  expect)
            << "block " << b;
        EXPECT_EQ(store.maxSelectedBitlineLrs(pages[1] + b * lineBytes),
                  expect)
            << "block " << b;
    }
}

TEST(BackingStore, FirstTouchFoldMatchesBitReference)
{
    // Four pages of one mat group whose 256 blocks put every byte
    // value in every mat position. Every one of the group's counters
    // must equal the background plus a bit-by-bit recount over the
    // pages, after first touch and again after random writes, with
    // the counters starting at both ends of the background range.
    MemoryGeometry geo;
    AddressMap map(geo);
    constexpr unsigned pageCount = 4;
    std::vector<Addr> pages;
    for (unsigned k = 0; k < pageCount; ++k) {
        BlockLocation loc = map.decode(0);
        loc.wordline = (loc.wordline + k) % geo.matRows;
        pages.push_back(map.encode(loc));
    }
    auto slotOf = [&](std::uint64_t pageIndex) {
        for (unsigned k = 0; k < pageCount; ++k)
            if (map.pageOf(pages[k]) == pageIndex)
                return k;
        ADD_FAILURE() << "page " << pageIndex << " is not in the group";
        return 0u;
    };

    for (double density : {0.0, 1.0}) {
        SCOPED_TRACE(density);
        BackingStore store(geo, true, density);
        // k * 64 + b runs over 0-255, so each mat sees every byte value.
        store.setPageInitializer([&](std::uint64_t page, PageContent &c) {
            const unsigned k = slotOf(page);
            for (unsigned b = 0; b < MemoryGeometry::blocksPerPage; ++b)
                for (unsigned mat = 0; mat < 64; ++mat)
                    c.blocks[b][mat] =
                        static_cast<std::uint8_t>(k * 64 + b + mat);
        });
        const auto background = static_cast<unsigned>(
            density * static_cast<double>(geo.matRows));
        auto expectCountersMatch = [&] {
            const std::uint16_t *counters = store.line(pages[0]).page->bitlines;
            for (unsigned b = 0; b < MemoryGeometry::blocksPerPage; ++b) {
                for (unsigned mat = 0; mat < 64; ++mat) {
                    for (unsigned bit = 0; bit < 8; ++bit) {
                        unsigned expect = background;
                        for (Addr page : pages)
                            expect += (store.read(page + b * lineBytes)[mat] >>
                                       bit) & 1;
                        ASSERT_EQ(counters[(b * 64 + mat) * 8 + bit], expect)
                            << "block " << b << " mat " << mat << " bit "
                            << bit;
                    }
                }
            }
        };

        for (Addr page : pages)
            store.line(page);
        for (Addr page : pages)
            ASSERT_EQ(store.line(page).page->bitlines,
                      store.line(pages[0]).page->bitlines);
        expectCountersMatch();

        Rng rng(21);
        for (int i = 0; i < 2000; ++i)
            store.write(pages[rng.nextBounded(pageCount)] +
                            rng.nextBounded(64) * lineBytes,
                        randomLine(rng));
        expectCountersMatch();
    }
}

TEST(BackingStore, PageIndexSurvivesGrowth)
{
    // Far more pages than the index's initial 1024 slots, touched in a
    // scattered order; every page keeps its own content. Bitline
    // tracking is off: the pages span most mat groups.
    BackingStore store(MemoryGeometry{}, false, 0.0);
    const std::uint64_t count = 5000;
    auto pageOf = [](std::uint64_t i) { return (i * 7919) % 1000003; };
    for (std::uint64_t i = 0; i < count; ++i) {
        LineData data{};
        data[0] = static_cast<std::uint8_t>(i);
        data[1] = static_cast<std::uint8_t>(i >> 8);
        store.write(pageOf(i) * MemoryGeometry::pageBytes, data);
        ASSERT_EQ(store.residentPages(), i + 1);
    }
    for (std::uint64_t i = 0; i < count; ++i) {
        ASSERT_TRUE(store.pageResident(pageOf(i)));
        const LineData &data =
            store.read(pageOf(i) * MemoryGeometry::pageBytes);
        EXPECT_EQ(data[0], static_cast<std::uint8_t>(i));
        EXPECT_EQ(data[1], static_cast<std::uint8_t>(i >> 8));
    }
    EXPECT_FALSE(store.pageResident(pageOf(count)));
    EXPECT_EQ(store.residentPages(), count);
}

} // namespace
} // namespace ladder
