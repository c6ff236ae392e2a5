/**
 * @file
 * Content-true sparse backing store for the ReRAM main memory.
 *
 * Unlike a conventional latency-only memory model, LADDER's behaviour
 * depends on the actual bits resident in the crossbars, so the store
 * keeps real 64-byte payloads. On top of the payloads it incrementally
 * maintains the two ground-truth LRS statistics the evaluated schemes
 * need:
 *
 *  - per-(page, mat) wordline LRS counts C_j (the exact counters
 *    LADDER-Basic maintains and the Oracle consults), and
 *  - per-(mat group, mat, bitline) LRS counts (what BLP's profiling
 *    circuitry would report).
 *
 * Pages are materialized lazily; an installable initializer provides
 * first-touch content so workloads see realistic resident data.
 *
 * Layout. Resident pages live in a std::deque arena (their addresses
 * never change) and are found through an open-addressed index of page
 * pointers with linear probing, kept at most half full; each page
 * carries its own number as the key. Each page points at its mat group's bitline counters, which
 * are stored block-major, [block][mat][bit]: block b of every page in
 * the group selects bitlines [8b, 8b+7] in each of the 64 mats, so those
 * 512 counters are contiguous and a write's worst-bitline scan is one
 * linear max. The address map always places 64 blocks x 8 bitlines on
 * a wordline, so mats have MemoryGeometry::matCols = 512 columns.
 *
 * Counter upkeep. First touch folds a page's content into the bitline
 * counters with lane adds: a table spreads each mat byte's bits into
 * 16-bit lanes, and two 64-bit adds update that mat's 8 contiguous
 * counters, whatever the byte's popcount. write() instead walks only
 * the bits that flip: an overwrite usually flips few, so the
 * changed-bit loop beats a lane subtract-and-add of both payloads.
 *
 * Callers on a hot path resolve an address once with line() and pass
 * the StoreLine handle to the read/write/counter calls; the address
 * overloads are one-line wrappers that resolve on every call.
 */

#ifndef LADDER_MEM_BACKING_STORE_HH
#define LADDER_MEM_BACKING_STORE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/bitops.hh"
#include "common/types.hh"
#include "reram/geometry.hh"

namespace ladder
{

/** Resident state of one 4KB page. */
struct PageContent
{
    std::array<LineData, MemoryGeometry::blocksPerPage> blocks{};
    /**
     * Global page number, the store's index key. It sits beside the
     * flags and counter pointer so an index probe touches a cache line
     * the access reads anyway.
     */
    std::uint64_t pageIndex = 0;
    /** Flip-N-Write inversion flag per block. */
    std::uint64_t flippedMask = 0;
    /**
     * The page's mat-group bitline counters ([block][mat][bit]), or
     * nullptr when the store does not track bitlines. Set when the
     * page is materialized.
     */
    std::uint16_t *bitlines = nullptr;
    /** C_j: LRS count of byte column j across the page's blocks. */
    std::array<std::uint16_t, MemoryGeometry::matsPerGroup> matCounts{};
};

/** A resolved block: its resident page and slot within the page. */
struct StoreLine
{
    PageContent *page = nullptr;
    unsigned block = 0;
};

/** Sparse, content-true ReRAM state. */
class BackingStore
{
  public:
    /** Callback that fills a page's blocks at first touch. */
    using PageInitializer =
        std::function<void(std::uint64_t pageIndex, PageContent &)>;

    /**
     * @param geo Module geometry.
     * @param trackBitlines Maintain per-bitline LRS counters (needed by
     *        the BLP scheme; small extra cost per write).
     * @param backgroundDensity Assumed LRS fraction of crossbar rows
     *        not owned by the simulated working set. A bitline spans
     *        all 512 wordlines of a mat; in a real deployment those
     *        rows hold other processes' data, so per-bitline counters
     *        start from density * rows instead of zero. Wordline
     *        (LADDER) counters are unaffected — a wordline belongs
     *        entirely to one simulated page.
     */
    explicit BackingStore(const MemoryGeometry &geo,
                          bool trackBitlines = true,
                          double backgroundDensity = 0.4);

    /** Install the first-touch content generator (optional). */
    void setPageInitializer(PageInitializer init);

    /**
     * Resolve a block address to its page (materializing it) and slot.
     * The handle stays valid for the store's lifetime.
     */
    StoreLine line(Addr lineAddr);

    /** A block's payload. */
    const LineData &
    read(StoreLine l) const
    {
        return l.page->blocks[l.block];
    }
    const LineData &read(Addr lineAddr) { return read(line(lineAddr)); }

    /**
     * Write a block's payload, updating all LRS statistics.
     *
     * @return The bit transitions performed (for energy/FNW stats).
     */
    BitTransitions write(StoreLine l, const LineData &data);
    BitTransitions
    write(Addr lineAddr, const LineData &data)
    {
        return write(line(lineAddr), data);
    }

    /** Whether a page has been materialized. */
    bool pageResident(std::uint64_t pageIndex) const;

    /** Exact C_j for one mat of a page. */
    std::uint16_t matLrsCount(std::uint64_t pageIndex, unsigned mat);

    /** Exact C_w = max_j C_j for the block's page. */
    std::uint16_t maxMatLrsCount(StoreLine l) const;
    std::uint16_t
    maxMatLrsCount(std::uint64_t pageIndex)
    {
        return maxMatLrsCount(line(pageIndex * MemoryGeometry::pageBytes));
    }

    /**
     * Worst per-bitline LRS count among the 512 bitline instances a
     * block write selects (8 bitlines in each of 64 mats).
     * Requires trackBitlines.
     */
    std::uint16_t maxSelectedBitlineLrs(StoreLine l) const;
    std::uint16_t
    maxSelectedBitlineLrs(Addr lineAddr)
    {
        return maxSelectedBitlineLrs(line(lineAddr));
    }

    /** FNW flag for a block. */
    bool
    flipped(StoreLine l) const
    {
        return (l.page->flippedMask >> l.block) & 1;
    }
    bool flipped(Addr lineAddr) { return flipped(line(lineAddr)); }
    void setFlipped(StoreLine l, bool value);
    void
    setFlipped(Addr lineAddr, bool value)
    {
        setFlipped(line(lineAddr), value);
    }

    /** Number of materialized pages. */
    std::size_t residentPages() const { return pages_.size(); }

    const AddressMap &addressMap() const { return map_; }
    const MemoryGeometry &geometry() const { return geo_; }

  private:
    MemoryGeometry geo_;
    AddressMap map_;
    std::uint64_t totalPages_;
    bool trackBitlines_;
    double backgroundDensity_;
    PageInitializer init_;
    std::deque<PageContent> pages_;
    std::vector<PageContent *> index_; //!< power-of-two size; null = empty
    unsigned indexShift_;          //!< 64 - log2(index_.size())
    /** Bitline counters per mat group, [block][mat][bit] each. */
    std::unordered_map<std::uint64_t, std::vector<std::uint16_t>>
        groupCounters_;

    std::size_t probeStart(std::uint64_t pageIndex) const;
    PageContent *findPage(std::uint64_t pageIndex) const;
    void insertIndex(PageContent *content);
    PageContent &materialize(Addr lineAddr);
    std::uint16_t *groupCounters(const BlockLocation &loc);
};

} // namespace ladder

#endif // LADDER_MEM_BACKING_STORE_HH
