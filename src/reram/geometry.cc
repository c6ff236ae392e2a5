#include "geometry.hh"

#include "common/log.hh"

namespace ladder
{

/**
 * Page interleaving. Requirements pulled in different directions:
 * consecutive pages must spread across channels and across the
 * (subarray, bank) pairs that can operate concurrently, while even a
 * small working set must sweep the full wordline (near-to-far
 * location) range that the latency model depends on. The layout is
 * therefore: channel fastest; then the subarray/bank pair; the
 * wordline advances per sweep but is sheared by 31 * pair so each
 * pair wave lands on well-spread wordlines; the remaining bits pick
 * the mat-group slice. All steps are exactly invertible.
 */

namespace
{

constexpr unsigned subarraySlots = MemoryGeometry::subarraySlots;
constexpr unsigned wordlineShear = 31;

} // anonymous namespace

BlockLocation
AddressMap::decode(Addr byteAddr) const
{
    BlockLocation loc;
    loc.blockInPage = static_cast<unsigned>(
        (byteAddr / lineBytes) % MemoryGeometry::blocksPerPage);
    std::uint64_t page = pageOf(byteAddr);
    loc.pageIndex = page;
    ladder_assert(page < totalPages(),
                  "address 0x%llx beyond memory capacity",
                  static_cast<unsigned long long>(byteAddr));

    loc.channel = static_cast<unsigned>(page % geo_.channels);
    std::uint64_t rest = page / geo_.channels;

    unsigned banksPerChannel = geo_.ranksPerChannel * geo_.banksPerRank;
    unsigned pairCount = banksPerChannel * subarraySlots;
    unsigned pair = static_cast<unsigned>(rest % pairCount);
    rest /= pairCount;

    unsigned subarray = pair % subarraySlots;
    unsigned rankBank = pair / subarraySlots;
    loc.rank = rankBank / geo_.banksPerRank;
    loc.bank = rankBank % geo_.banksPerRank;

    loc.wordline = static_cast<unsigned>(
        (rest + static_cast<std::uint64_t>(wordlineShear) * pair) %
        geo_.matRows);
    rest /= geo_.matRows;

    ladder_assert(geo_.matGroupsPerBank % subarraySlots == 0,
                  "mat groups per bank must be a multiple of %u",
                  subarraySlots);
    unsigned groupSlices = geo_.matGroupsPerBank / subarraySlots;
    loc.matGroup = static_cast<unsigned>(rest % groupSlices) *
                       subarraySlots +
                   subarray;
    return loc;
}

Addr
AddressMap::encode(const BlockLocation &loc) const
{
    unsigned banksPerChannel = geo_.ranksPerChannel * geo_.banksPerRank;
    unsigned pairCount = banksPerChannel * subarraySlots;
    unsigned subarray = loc.matGroup % subarraySlots;
    unsigned groupSlice = loc.matGroup / subarraySlots;
    unsigned rankBank = loc.rank * geo_.banksPerRank + loc.bank;
    unsigned pair = rankBank * subarraySlots + subarray;

    // Invert the sheared wordline back to the sweep counter.
    std::uint64_t shear =
        (static_cast<std::uint64_t>(wordlineShear) * pair) %
        geo_.matRows;
    std::uint64_t sweep =
        (loc.wordline + geo_.matRows - shear) % geo_.matRows;

    std::uint64_t page = groupSlice;
    page = page * geo_.matRows + sweep;
    page = page * pairCount + pair;
    page = page * geo_.channels + loc.channel;
    return page * MemoryGeometry::pageBytes +
           static_cast<Addr>(loc.blockInPage) * lineBytes;
}

} // namespace ladder
