/**
 * @file
 * Dense per-write latency surface: the O(1) hot-path form of a
 * WriteTimingTable. A table lookup performs two divisions and a
 * round-up content bucketing per write; the surface precomputes all
 * three index maps at init — a per-row WL region base, a per-column
 * BL region, and a dense content axis with one entry per possible LRS
 * count — so the per-write cost collapses to two array reads, one
 * multiply-add, and one entry load.
 *
 * The surface is *bit-identical* to its source table by construction:
 * every dense cell is a copy of the table entry the bucket formulas
 * would select, so swapping table lookups for surface lookups cannot
 * change a single simulated latency. `verifyAgainst` re-derives every
 * index map and cell from the table, and `checkSurfaceError`
 * re-evaluates the circuit at every bucket corner to bound the surface
 * against a reference evaluator (e.g. full MNA) with an explicit
 * relative error budget — the contract test_timing_tables and
 * test_latency_surface enforce.
 */

#ifndef LADDER_RERAM_LATENCY_SURFACE_HH
#define LADDER_RERAM_LATENCY_SURFACE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "timing_tables.hh"

namespace ladder
{

/** One ⟨wordline, bitline, LRS count⟩ surface lookup request. */
struct SurfaceQuery
{
    unsigned wordline = 0;
    unsigned bitline = 0;
    unsigned lrsCount = 0;
};

/** Result of the exact surface-vs-table integrity check. */
struct SurfaceCheckResult
{
    std::size_t cellsChecked = 0;
    std::size_t mismatches = 0;
    /** Largest |surface latency - table latency| seen (ns). */
    double maxAbsErrorNs = 0.0;

    bool ok() const { return cellsChecked > 0 && mismatches == 0; }
};

/** Result of the error-budget check against a reference evaluator. */
struct SurfaceErrorReport
{
    std::size_t cellsChecked = 0;
    std::size_t violations = 0;
    /** Largest relative latency error vs the reference (signed max
     * magnitude; positive = surface slower than reference). */
    double maxRelError = 0.0;
    double budget = 0.0;

    bool ok() const { return cellsChecked > 0 && violations == 0; }
};

/** Dense ⟨wordline, bitline, LRS count⟩ -> TimingEntry surface. */
class LatencySurface
{
  public:
    LatencySurface() = default;

    /** Precompute the dense surface for @p table. */
    static LatencySurface fromTable(const WriteTimingTable &table);

    bool empty() const { return entries_.empty(); }

    /**
     * O(1) lookup at raw indices: @p wordline in [0, rows),
     * @p bitline in [0, cols), @p lrsCount in [0, content max]
     * (larger counts clamp, matching WriteTimingTable::lookup).
     */
    const TimingEntry &
    lookup(unsigned wordline, unsigned bitline,
           unsigned lrsCount) const
    {
        const std::size_t region =
            static_cast<std::size_t>(wlBase_[wordline]) +
            blRegion_[bitline];
        const std::size_t c =
            lrsCount < contentDense_ ? lrsCount : contentDense_ - 1;
        return entries_[region * contentDense_ + c];
    }

    /**
     * Exact integrity check: re-derive every index map entry and every
     * dense cell from @p table's bucket formulas and compare
     * bit-for-bit. Any mismatch means the surface no longer mirrors
     * the table (memory corruption, or a bucket-formula drift between
     * the two implementations).
     */
    SurfaceCheckResult verifyAgainst(const WriteTimingTable &table) const;

    unsigned rows() const { return rows_; }
    unsigned cols() const { return cols_; }
    /** Dense content entries per region (content max + 1, or 1 for a
     * location-only table). */
    unsigned contentDense() const { return contentDense_; }
    unsigned regionCount() const { return regions_; }
    std::size_t entryCount() const { return entries_.size(); }
    /** Host memory footprint of the precomputed state, in bytes. */
    std::size_t storageBytes() const;

  private:
    unsigned rows_ = 0;
    unsigned cols_ = 0;
    unsigned regions_ = 0;
    unsigned contentDense_ = 1;
    /** Per-wordline WL-bucket index, pre-multiplied by blBuckets. */
    std::vector<std::uint16_t> wlBase_;
    /** Per-bitline BL-bucket index. */
    std::vector<std::uint16_t> blRegion_;
    /** regions_ x contentDense_ dense entries. */
    std::vector<TimingEntry> entries_;
};

/**
 * Error-budget cross-check: for every bucket corner of @p table
 * (the exact operating points the table — and therefore the surface —
 * was generated at), re-evaluate the circuit with @p reference, map
 * the drop through @p law, and flag cells whose table latency differs
 * from the reference latency by more than @p relBudget (relative to
 * the reference). With the generating evaluator as reference this
 * must report zero violations at any budget; with full MNA as
 * reference it bounds the fast-model approximation error.
 */
SurfaceErrorReport checkSurfaceError(const CrossbarParams &params,
                                     const WriteTimingTable &table,
                                     const ResetLatencyLaw &law,
                                     const ResetEvaluator &reference,
                                     double relBudget);

} // namespace ladder

#endif // LADDER_RERAM_LATENCY_SURFACE_HH
