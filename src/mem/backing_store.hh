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
 */

#ifndef LADDER_MEM_BACKING_STORE_HH
#define LADDER_MEM_BACKING_STORE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
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
    /** C_j: LRS count of byte column j across the page's blocks. */
    std::array<std::uint16_t, MemoryGeometry::matsPerGroup> matCounts{};
    /** Flip-N-Write inversion flag per block. */
    std::uint64_t flippedMask = 0;
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

    /** Read a block's payload (materializes the page). */
    const LineData &read(Addr lineAddr);

    /**
     * Write a block's payload, updating all LRS statistics.
     *
     * @return The bit transitions performed (for energy/FNW stats).
     */
    BitTransitions write(Addr lineAddr, const LineData &data);

    /** Whether a page has been materialized. */
    bool pageResident(std::uint64_t pageIndex) const;

    /** Exact C_j for one mat of a page. */
    std::uint16_t matLrsCount(std::uint64_t pageIndex, unsigned mat);

    /** Exact C_w = max_j C_j for a page. */
    std::uint16_t maxMatLrsCount(std::uint64_t pageIndex);

    /**
     * Worst per-bitline LRS count among the 512 bitline instances a
     * block write selects (8 bitlines in each of 64 mats).
     * Requires trackBitlines.
     */
    std::uint16_t maxSelectedBitlineLrs(Addr lineAddr);

    /** FNW flag for a block. */
    bool flipped(Addr lineAddr);
    void setFlipped(Addr lineAddr, bool value);

    /** Number of materialized pages. */
    std::size_t residentPages() const { return pages_.size(); }

    const AddressMap &addressMap() const { return map_; }
    const MemoryGeometry &geometry() const { return geo_; }

  private:
    /** Per-mat-group bitline LRS counters (64 mats x cols bitlines). */
    struct MatGroupCounters
    {
        std::vector<std::uint16_t> counts;
    };

    MemoryGeometry geo_;
    AddressMap map_;
    bool trackBitlines_;
    double backgroundDensity_;
    PageInitializer init_;
    std::unordered_map<std::uint64_t, PageContent> pages_;
    std::unordered_map<std::uint64_t, std::unique_ptr<MatGroupCounters>>
        groupCounters_;

    PageContent &page(std::uint64_t pageIndex);
    std::uint64_t matGroupKey(const BlockLocation &loc) const;
    MatGroupCounters &groupCounters(const BlockLocation &loc);
    void applyBitlineDeltas(const BlockLocation &loc,
                            const LineData &before,
                            const LineData &after);
};

} // namespace ladder

#endif // LADDER_MEM_BACKING_STORE_HH
