/** @file Tests for the LRS-metadata region layout. */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "schemes/metadata_layout.hh"

namespace ladder
{
namespace
{

MetadataLayout
layout()
{
    MemoryGeometry geo;
    AddressMap map(geo);
    return MetadataLayout(geo, map.totalPages() * 3 / 4);
}

TEST(MetadataLayout, ReservedRegionAboveData)
{
    MetadataLayout l = layout();
    EXPECT_EQ(l.reservedBase(),
              l.dataPages() * MemoryGeometry::pageBytes);
    EXPECT_FALSE(l.isMetadataAddr(l.reservedBase() - 1));
    EXPECT_TRUE(l.isMetadataAddr(l.reservedBase()));
}

TEST(MetadataLayout, BasicTwoLinesPerPage)
{
    MetadataLayout l = layout();
    Addr a0 = l.basicLine(10, 0);
    Addr a1 = l.basicLine(10, 1);
    EXPECT_EQ(a1, a0 + lineBytes);
    EXPECT_TRUE(l.isMetadataAddr(a0));
    // Distinct pages get distinct line pairs.
    EXPECT_EQ(l.basicLine(11, 0), a0 + 2 * lineBytes);
}

TEST(MetadataLayout, EstOneLinePerPage)
{
    MetadataLayout l = layout();
    std::set<Addr> seen;
    for (std::uint64_t page = 0; page < 500; ++page) {
        Addr a = l.estLine(page);
        EXPECT_TRUE(l.isMetadataAddr(a));
        EXPECT_EQ(a % lineBytes, 0u);
        EXPECT_TRUE(seen.insert(a).second) << "page " << page;
    }
}

TEST(MetadataLayout, HybridLowSharedByFourAdjacentRows)
{
    MemoryGeometry geo;
    AddressMap map(geo);
    MetadataLayout l = layout();
    // Pages on wordlines 4k..4k+3 of the same mat group share a line.
    BlockLocation loc = map.decode(0);
    loc.wordline = 8;
    Addr a = l.hybridLowLine(loc);
    loc.wordline = 9;
    EXPECT_EQ(l.hybridLowLine(loc), a);
    loc.wordline = 11;
    EXPECT_EQ(l.hybridLowLine(loc), a);
    loc.wordline = 12;
    EXPECT_NE(l.hybridLowLine(loc), a);
    EXPECT_TRUE(l.isMetadataAddr(a));
}

TEST(MetadataLayout, HybridLowGroupsDoNotAliasAtOddRowCounts)
{
    // At 10 rows a mat group's last 4-row group is partial (rows 8-9);
    // it must not share a line with the next mat group's rows 0-3.
    MemoryGeometry geo;
    geo.matRows = 10;
    AddressMap map(geo);
    MetadataLayout l(geo, map.totalPages() * 3 / 4);
    std::map<Addr, std::pair<unsigned, unsigned>> owner;
    BlockLocation loc = map.decode(0);
    for (unsigned group = 0; group < 4; ++group) {
        for (unsigned wl = 0; wl < geo.matRows; ++wl) {
            loc.matGroup = group;
            loc.wordline = wl;
            const auto key = std::make_pair(group, wl / 4);
            const auto it = owner.emplace(l.hybridLowLine(loc), key).first;
            EXPECT_EQ(it->second, key)
                << "group " << group << " wordline " << wl;
        }
    }
    EXPECT_EQ(owner.size(), 4u * 3u);
}

TEST(MetadataLayout, HybridLowDistinctAcrossBanks)
{
    MemoryGeometry geo;
    AddressMap map(geo);
    MetadataLayout l = layout();
    BlockLocation a = map.decode(0);
    a.wordline = 0;
    BlockLocation b = a;
    b.bank = a.bank + 1;
    EXPECT_NE(l.hybridLowLine(a), l.hybridLowLine(b));
    BlockLocation c = a;
    c.channel = a.channel ^ 1;
    EXPECT_NE(l.hybridLowLine(a), l.hybridLowLine(c));
}

TEST(MetadataLayout, RegionsDoNotOverlap)
{
    MetadataLayout l = layout();
    // Per-page lines and the hybrid-low region are disjoint.
    Addr perPageEnd =
        l.reservedBase() + l.dataPages() * 2 * lineBytes;
    MemoryGeometry geo;
    AddressMap map(geo);
    BlockLocation loc = map.decode(0);
    loc.wordline = 0;
    EXPECT_GE(l.hybridLowLine(loc), perPageEnd);
}

TEST(MetadataLayout, StorageOverheadsMatchPaper)
{
    MetadataLayout l = layout();
    EXPECT_NEAR(l.basicOverhead(), 0.0312, 0.0002); // 3.12%
    EXPECT_NEAR(l.estOverhead(), 0.0156, 0.0002);   // 1.56%
    EXPECT_NEAR(l.hybridOverhead(128), 0.0127, 0.002); // ~0.97-1.3%
    EXPECT_LT(l.hybridOverhead(128), l.estOverhead());
    EXPECT_LT(l.hybridOverhead(256), l.hybridOverhead(128));
}

TEST(MetadataLayout, HybridOverheadClampsLowRows)
{
    // A 64-row mat under the default 128 low-precision rows is
    // low-precision throughout: one line per 4 pages, never a
    // low-precision fraction above 1 (a negative overhead).
    MemoryGeometry geo;
    geo.matRows = 64;
    AddressMap map(geo);
    MetadataLayout l(geo, map.totalPages() * 3 / 4);
    EXPECT_EQ(l.hybridOverhead(128), 16.0 / 4096.0);
    EXPECT_EQ(l.hybridOverhead(64), 16.0 / 4096.0);
    for (unsigned lowRows : {0u, 32u, 64u, 128u, 4096u})
        EXPECT_GT(l.hybridOverhead(lowRows), 0.0) << lowRows;
}

TEST(MetadataLayout, OutOfRangePagePanics)
{
    MetadataLayout l = layout();
    EXPECT_THROW(l.estLine(l.dataPages()), std::logic_error);
    EXPECT_THROW(l.basicLine(l.dataPages(), 0), std::logic_error);
}

TEST(MetadataLayout, TooSmallReserveIsRejected)
{
    MemoryGeometry geo;
    AddressMap map(geo);
    EXPECT_THROW(MetadataLayout(geo, map.totalPages()),
                 std::logic_error);
}

} // namespace
} // namespace ladder
