/** @file Tests for one cache level. */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "common/rng.hh"

namespace ladder
{
namespace
{

LineData
byteLine(std::uint8_t v)
{
    return filledLine(v);
}

Cache
tiny()
{
    // 2 sets x 2 ways.
    return Cache(CacheParams{4 * lineBytes, 2}, "tiny");
}

Addr
inSet(unsigned set, unsigned n, unsigned sets)
{
    return static_cast<Addr>(set + n * sets) * lineBytes;
}

TEST(Cache, MissThenHit)
{
    Cache c = tiny();
    EXPECT_EQ(c.probe(0), nullptr);
    c.insert(0, byteLine(1), false);
    LineData *line = c.probe(0);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ((*line)[0], 1);
    EXPECT_EQ(c.hits.value(), 1.0);
    EXPECT_EQ(c.misses.value(), 1.0);
}

TEST(Cache, LruEviction)
{
    Cache c = tiny();
    unsigned sets = c.sets();
    c.insert(inSet(0, 0, sets), byteLine(1), false);
    c.insert(inSet(0, 1, sets), byteLine(2), false);
    c.probe(inSet(0, 0, sets)); // refresh line 0
    CacheVictim v = c.insert(inSet(0, 2, sets), byteLine(3), false);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, inSet(0, 1, sets)); // LRU evicted
    EXPECT_FALSE(v.dirty);
    EXPECT_TRUE(c.contains(inSet(0, 0, sets)));
}

TEST(Cache, DirtyVictimCarriesData)
{
    Cache c = tiny();
    unsigned sets = c.sets();
    c.insert(inSet(1, 0, sets), byteLine(7), true);
    c.insert(inSet(1, 1, sets), byteLine(8), false);
    CacheVictim v = c.insert(inSet(1, 2, sets), byteLine(9), false);
    ASSERT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
    EXPECT_EQ(v.data, byteLine(7));
    EXPECT_EQ(c.dirtyEvictions.value(), 1.0);
}

TEST(Cache, InsertOnExistingMergesDirty)
{
    Cache c = tiny();
    c.insert(0, byteLine(1), true);
    CacheVictim v = c.insert(0, byteLine(2), false);
    EXPECT_FALSE(v.valid); // refresh, no eviction
    EXPECT_TRUE(c.isDirty(0));
    EXPECT_EQ((*c.probe(0))[0], 2);
}

TEST(Cache, ProbeForWriteMarksDirty)
{
    Cache c = tiny();
    c.insert(0, byteLine(1), false);
    EXPECT_FALSE(c.isDirty(0));
    ASSERT_NE(c.probeForWrite(0), nullptr);
    EXPECT_TRUE(c.isDirty(0));
    // A miss marks nothing and returns no line.
    EXPECT_EQ(c.probeForWrite(64), nullptr);
    EXPECT_FALSE(c.contains(64));
}

TEST(Cache, InvalidateDropsSilently)
{
    Cache c = tiny();
    c.insert(0, byteLine(1), true);
    c.invalidate(0);
    EXPECT_FALSE(c.contains(0));
    // Invalidate of an absent line is a no-op.
    c.invalidate(64 * 50);
}

TEST(Cache, FlushReturnsOnlyDirty)
{
    Cache c = tiny();
    unsigned sets = c.sets();
    c.insert(inSet(0, 0, sets), byteLine(1), true);
    c.insert(inSet(1, 0, sets), byteLine(2), false);
    auto dirty = c.flush();
    ASSERT_EQ(dirty.size(), 1u);
    EXPECT_EQ(dirty[0].data, byteLine(1));
    EXPECT_FALSE(c.contains(inSet(0, 0, sets)));
}

TEST(Cache, ProbeUpdatesRecencyButContainsDoesNot)
{
    Cache c = tiny();
    unsigned sets = c.sets();
    c.insert(inSet(0, 0, sets), byteLine(1), false);
    c.insert(inSet(0, 1, sets), byteLine(2), false);
    // contains() must not refresh recency.
    EXPECT_TRUE(c.contains(inSet(0, 0, sets)));
    CacheVictim v = c.insert(inSet(0, 2, sets), byteLine(3), false);
    EXPECT_EQ(v.addr, inSet(0, 0, sets));
}

TEST(Cache, StressRandomAgainstReferenceModel)
{
    // Content correctness under random traffic vs a map-based model.
    Cache c(CacheParams{64 * lineBytes, 4}, "stress");
    std::unordered_map<Addr, LineData> reference;
    Rng rng(11);
    for (int i = 0; i < 4000; ++i) {
        Addr addr = rng.nextBounded(256) * lineBytes;
        if (rng.nextBool(0.5)) {
            LineData data = byteLine(
                static_cast<std::uint8_t>(rng.nextBounded(256)));
            c.insert(addr, data, true);
            reference[addr] = data;
        } else if (LineData *line = c.probe(addr)) {
            ASSERT_TRUE(reference.count(addr));
            EXPECT_EQ(*line, reference[addr]) << "addr " << addr;
        }
    }
}

} // namespace
} // namespace ladder
