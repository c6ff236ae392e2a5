/**
 * @file
 * Physical organization of the ReRAM main memory and the data layout of
 * a 64B memory block across it (paper §3.1, Fig. 3, Table 2).
 *
 * Layout recap: a rank is built from 8 x8 chips; a 64B block spreads one
 * byte to each of 64 mats (8 mats per chip) — the "mat group". All 64
 * bytes of a 4KB page's block b land on the same wordline index w at
 * byte slot b (bitlines [8b, 8b+7]); the 64 (mat, wordline-w) rows used
 * by a page form its "wordline group" (WLG). The per-mat LRS counter
 * C_j of a WLG is the popcount of byte j over the page's 64 blocks.
 */

#ifndef LADDER_RERAM_GEOMETRY_HH
#define LADDER_RERAM_GEOMETRY_HH

#include <cstddef>

#include "common/types.hh"

namespace ladder
{

/** Organization parameters of the ReRAM module (Table 2 defaults). */
struct MemoryGeometry
{
    unsigned channels = 2;
    unsigned ranksPerChannel = 2;
    unsigned banksPerRank = 8;
    unsigned matGroupsPerBank = 64; //!< 64-mat groups per bank
    /** Wordlines per mat; makeSystemConfig copies it from xbar.rows. */
    unsigned matRows = 512;

    /** Mats that cooperate to store one block. */
    static constexpr unsigned matsPerGroup = 64;
    /** Blocks per page / byte slots per wordline. */
    static constexpr unsigned blocksPerPage = 64;
    /** Bytes per page. */
    static constexpr unsigned pageBytes = blocksPerPage * lineBytes;
    /** Bitlines per mat: every block of a page owns 8 per wordline. */
    static constexpr unsigned matCols = blocksPerPage * 8;
    /**
     * Mat groups interleave as this many concurrent subarray slots per
     * bank, so matGroupsPerBank must be a multiple of it.
     */
    static constexpr unsigned subarraySlots = 4;

    /** Pages per bank. */
    std::uint64_t
    pagesPerBank() const
    {
        return static_cast<std::uint64_t>(matGroupsPerBank) * matRows;
    }
    /** Total banks in the module. */
    unsigned
    totalBanks() const
    {
        return channels * ranksPerChannel * banksPerRank;
    }
    /** Total data capacity in bytes. */
    std::uint64_t
    capacityBytes() const
    {
        return static_cast<std::uint64_t>(totalBanks()) *
               pagesPerBank() * pageBytes;
    }
};

/** Fully decoded physical location of one 64B block. */
struct BlockLocation
{
    unsigned channel = 0;
    unsigned rank = 0;
    unsigned bank = 0;       //!< bank within rank
    unsigned matGroup = 0;   //!< mat group within bank
    unsigned wordline = 0;   //!< row index within the mats (0..rows-1)
    unsigned blockInPage = 0; //!< byte slot b; bitlines [8b, 8b+7]
    std::uint64_t pageIndex = 0; //!< global page number

    /** Highest (worst IR drop) bitline index the block touches. */
    unsigned
    worstBitline() const
    {
        return blockInPage * 8 + 7;
    }
    /** Flat bank id across the module (channel-major). */
    unsigned
    flatBank(const MemoryGeometry &geo) const
    {
        return (channel * geo.ranksPerChannel + rank) *
                   geo.banksPerRank +
               bank;
    }
};

/**
 * Address decoder: line/page address -> physical location.
 *
 * Pages interleave round-robin across channels, then across
 * (rank, bank), then across wordlines (so that consecutive pages in a
 * bank land on consecutive wordline indices, exercising the location
 * dimension), then across mat groups.
 */
class AddressMap
{
  public:
    explicit AddressMap(const MemoryGeometry &geo) : geo_(geo) {}

    /** Decode a byte address (the containing block's location). */
    BlockLocation decode(Addr byteAddr) const;

    /** Line-aligned address of a block from its location. */
    Addr encode(const BlockLocation &loc) const;

    /** Page index of an address. */
    std::uint64_t
    pageOf(Addr byteAddr) const
    {
        return byteAddr / MemoryGeometry::pageBytes;
    }

    /** Total pages addressable. */
    std::uint64_t
    totalPages() const
    {
        return static_cast<std::uint64_t>(geo_.totalBanks()) *
               geo_.pagesPerBank();
    }

    const MemoryGeometry &geometry() const { return geo_; }

  private:
    MemoryGeometry geo_;
};

} // namespace ladder

#endif // LADDER_RERAM_GEOMETRY_HH
