/**
 * @file
 * The write timing table the memory controller consults to turn a
 * ⟨WL location, BL location, LRS count⟩ tuple into a RESET latency
 * (paper §3.1, §5). The paper's table is logically 8x8x8: each
 * dimension is bucketed at a granularity of 64 for a 512x512 crossbar.
 * Entries are generated from the circuit model at the worst-case corner
 * of each bucket, so the entry of the bucket covering an operating
 * point is always sufficient (safe) for it.
 *
 * Two content flavours exist: the LADDER table varies the *wordline*
 * LRS count and worst-cases the bitlines; the BLP table varies the
 * *bitline* LRS count and worst-cases the wordline. A location-only
 * table (one content bucket) serves metadata writes and the
 * location-aware motivation scheme.
 *
 * A LatencySurface holds one such table in the dense form the write
 * path reads: a per-row WL region base, a per-column BL region, and a
 * content axis with one entry per possible LRS count, each a copy of
 * its covering bucket's entry. A lookup is two array reads, one
 * multiply-add and one entry load. `checkSurfaceError` re-evaluates
 * the circuit at every bucket corner to bound the table against a
 * reference evaluator (e.g. full MNA) with an explicit relative error
 * budget — the contract test_timing_tables and test_latency_surface
 * enforce.
 */

#ifndef LADDER_RERAM_LATENCY_SURFACE_HH
#define LADDER_RERAM_LATENCY_SURFACE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "circuit/cell_model.hh"
#include "circuit/latency.hh"
#include "circuit/reset_condition.hh"
#include "circuit/solvers.hh"

namespace ladder
{

/** Which content dimension a table resolves. */
enum class ContentDim
{
    Wordline, //!< LADDER: per-wordline LRS counts, bitlines worst-cased
    Bitline,  //!< BLP: per-bitline LRS counts, wordline worst-cased
};

/** One timing entry: the latency to apply and the array power drawn. */
struct TimingEntry
{
    double latencyNs = 0.0;
    double powerMw = 0.0;
};

/** Callable that evaluates the circuit at one operating point. */
using ResetEvaluator =
    std::function<ResetEvaluation(const ResetCondition &)>;

/** One ⟨wordline, bitline, LRS count⟩ surface lookup request. */
struct SurfaceQuery
{
    unsigned wordline = 0;
    unsigned bitline = 0;
    unsigned lrsCount = 0;
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

/** A bucketed ⟨WL, BL, content⟩ -> TimingEntry table, stored dense. */
class LatencySurface
{
  public:
    LatencySurface() = default;

    /**
     * Generate a table from a circuit evaluator, one evaluation per
     * bucket at the bucket's worst-case corner.
     *
     * @param params Crossbar parameters (defines index ranges).
     * @param law Calibrated voltage-drop -> latency law.
     * @param eval Circuit evaluator (fast model or full MNA).
     * @param dim Which content dimension the table resolves.
     * @param wlBuckets/blBuckets/contentBuckets Table granularity
     *        (8x8x8 in the paper).
     */
    static LatencySurface build(const CrossbarParams &params,
                                const ResetLatencyLaw &law,
                                const ResetEvaluator &eval,
                                ContentDim dim, unsigned wlBuckets = 8,
                                unsigned blBuckets = 8,
                                unsigned contentBuckets = 8);

    /**
     * O(1) lookup at raw indices: @p wordline in [0, rows),
     * @p bitline in [0, cols), @p lrsCount in [0, content max]
     * (larger counts clamp to the top bucket).
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

    /** The entry of one bucket (read at its corner LRS count). */
    const TimingEntry &at(unsigned wlBucket, unsigned blBucket,
                          unsigned contentBucket) const;

    /** Largest latency in the table (the safe fixed latency). */
    double worstLatencyNs() const { return worstNs_; }
    /** Smallest latency in the table. */
    double bestLatencyNs() const { return bestNs_; }

    unsigned wlBuckets() const { return wlBuckets_; }
    unsigned blBuckets() const { return blBuckets_; }
    unsigned contentBuckets() const { return contentBuckets_; }
    ContentDim contentDim() const { return dim_; }
    unsigned rows() const { return rows_; }
    unsigned cols() const { return cols_; }
    /** Largest raw content count (cols for WL tables, rows for BL). */
    unsigned contentMax() const { return contentMax_; }

    /**
     * On-chip storage of the controller's table, in bytes: one byte
     * encodes a latency level per bucket (512 B for the paper's 8x8x8
     * organization).
     */
    std::size_t
    storageBytes() const
    {
        return static_cast<std::size_t>(wlBuckets_) * blBuckets_ *
               contentBuckets_;
    }

  private:
    unsigned rows_ = 0;
    unsigned cols_ = 0;
    unsigned wlBuckets_ = 0;
    unsigned blBuckets_ = 0;
    unsigned contentBuckets_ = 0;
    unsigned contentMax_ = 0;
    ContentDim dim_ = ContentDim::Wordline;
    double worstNs_ = 0.0;
    double bestNs_ = 0.0;
    /** Dense content entries per region (content max + 1, or 1 for a
     * location-only table). */
    unsigned contentDense_ = 1;
    /** Per-wordline WL-bucket index, pre-multiplied by blBuckets. */
    std::vector<std::uint16_t> wlBase_;
    /** Per-bitline BL-bucket index. */
    std::vector<std::uint16_t> blRegion_;
    /** (wlBuckets x blBuckets) regions x contentDense_ entries. */
    std::vector<TimingEntry> entries_;
};

/**
 * Error-budget cross-check: for every bucket corner of @p surface
 * (the exact operating points it was generated at), re-evaluate the
 * circuit with @p reference, map the drop through @p law, and flag
 * cells whose latency differs from the reference latency by more than
 * @p relBudget (relative to the reference). With the generating
 * evaluator as reference this must report zero violations at any
 * budget; with full MNA as reference it bounds the fast-model
 * approximation error.
 */
SurfaceErrorReport checkSurfaceError(const CrossbarParams &params,
                                     const LatencySurface &surface,
                                     const ResetLatencyLaw &law,
                                     const ResetEvaluator &reference,
                                     double relBudget);

} // namespace ladder

#endif // LADDER_RERAM_LATENCY_SURFACE_HH
