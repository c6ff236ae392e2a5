/**
 * @file
 * The write timing tables the memory controller consults to turn a
 * ⟨WL location, BL location, LRS count⟩ tuple into a RESET latency
 * (paper §3.1, §5). The paper's table is logically 8x8x8: each
 * dimension is bucketed at a granularity of 64 for a 512x512 crossbar.
 * Entries are generated from the circuit model at the worst-case corner
 * of each bucket so a table lookup is always sufficient (safe) for any
 * operating point inside the bucket.
 *
 * Two content flavours exist: the LADDER table varies the *wordline*
 * LRS count and worst-cases the bitlines; the BLP table varies the
 * *bitline* LRS count and worst-cases the wordline. A location-only
 * table (both contents worst-cased) serves metadata writes and the
 * location-aware motivation scheme.
 */

#ifndef LADDER_RERAM_TIMING_TABLES_HH
#define LADDER_RERAM_TIMING_TABLES_HH

#include <functional>
#include <memory>
#include <string>
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

/** A bucketed ⟨WL, BL, content⟩ -> latency table. */
class WriteTimingTable
{
  public:
    WriteTimingTable() = default;

    /**
     * Generate a table from a circuit evaluator.
     *
     * @param params Crossbar parameters (defines index ranges).
     * @param law Calibrated voltage-drop -> latency law.
     * @param eval Circuit evaluator (fast model or full MNA).
     * @param dim Which content dimension the table resolves.
     * @param wlBuckets/blBuckets/contentBuckets Table granularity
     *        (8x8x8 in the paper).
     */
    static WriteTimingTable build(const CrossbarParams &params,
                                  const ResetLatencyLaw &law,
                                  const ResetEvaluator &eval,
                                  ContentDim dim,
                                  unsigned wlBuckets = 8,
                                  unsigned blBuckets = 8,
                                  unsigned contentBuckets = 8);

    /**
     * Look up the timing for raw indices: @p wordline in [0, rows),
     * @p bitline in [0, cols), @p lrsCount in [0, content max].
     * Indices are bucketed internally (always rounding content up).
     */
    const TimingEntry &lookup(unsigned wordline, unsigned bitline,
                              unsigned lrsCount) const;

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

    /** Direct bucket access (for dumping the Fig. 11 surfaces). */
    const TimingEntry &at(unsigned wlBucket, unsigned blBucket,
                          unsigned contentBucket) const;

    /** On-chip storage footprint of the latency values, in bytes. */
    std::size_t storageBytes() const;

  private:
    unsigned wlBuckets_ = 0;
    unsigned blBuckets_ = 0;
    unsigned contentBuckets_ = 0;
    unsigned rows_ = 0;
    unsigned cols_ = 0;
    unsigned contentMax_ = 0;
    ContentDim dim_ = ContentDim::Wordline;
    double worstNs_ = 0.0;
    double bestNs_ = 0.0;
    std::vector<TimingEntry> entries_;

    std::size_t index(unsigned wl, unsigned bl, unsigned c) const;
};

/**
 * Scheme-independent array power model: a 4-D
 * ⟨WL, BL, wordline LRS, bitline LRS⟩ grid of source power evaluated
 * at the *actual* content, so write-energy accounting (Fig. 17) is
 * fair across schemes regardless of which dimension their latency
 * table worst-cases.
 */
class PowerTable
{
  public:
    PowerTable() = default;

    static PowerTable build(const CrossbarParams &params,
                            const ResetEvaluator &eval,
                            unsigned buckets = 4);

    /** Power (mW) at raw indices/counts (nearest-bucket rounding). */
    double lookup(unsigned wordline, unsigned bitline,
                  unsigned wlLrsCount, unsigned blLrsCount) const;

    bool empty() const { return power_.empty(); }

  private:
    unsigned buckets_ = 0;
    unsigned rows_ = 0;
    unsigned cols_ = 0;
    std::vector<double> power_;
};

/**
 * The full timing-model bundle a controller needs, generated in one
 * shot from the fast sneak-path model: calibrated law, the LADDER and
 * BLP tables, and a location-only table.
 */
class LatencySurface;

struct TimingModel
{
    CrossbarParams params;
    ResetLatencyLaw law;
    WriteTimingTable ladder;   //!< WL-content resolved
    WriteTimingTable blp;      //!< BL-content resolved
    WriteTimingTable location; //!< content worst-cased (1 bucket)
    PowerTable power;          //!< content-true power (energy model)
    double bestDropVolts = 0.0;
    double worstDropVolts = 0.0;
    /** Every circuit solve this model's build ran (stats.json). */
    SolverCounters solver;

    /**
     * Dense O(1) surfaces precomputed from the three tables (see
     * latency_surface.hh) — bit-identical to table lookups by
     * construction. Shared pointers keep TimingModel copyable without
     * duplicating the dense state; always non-null after generate().
     */
    std::shared_ptr<const LatencySurface> ladderSurface;
    std::shared_ptr<const LatencySurface> blpSurface;
    std::shared_ptr<const LatencySurface> locationSurface;

    /**
     * Build everything from the fast model.
     *
     * @param granularity Buckets per dimension (8 in the paper).
     * @param rangeShrink Dynamic-range shrink factor for the §7
     *        process-variation ablation (1.0 = nominal).
     */
    static TimingModel generate(const CrossbarParams &params,
                                unsigned granularity = 8,
                                double rangeShrink = 1.0,
                                double fastNs = 29.0,
                                double slowNs = 658.0);

    /**
     * Build tables for a *variant* operating mode (e.g. Split-reset's
     * 4-selected-cell half-RESET) using an already-calibrated law from
     * the reference mode, so latencies stay on one physical scale.
     */
    static TimingModel generateDerived(const CrossbarParams &params,
                                       const ResetLatencyLaw &law,
                                       unsigned granularity = 8);

    /** Worst-case fixed write latency (the baseline's tWR). */
    double worstLatencyNs() const { return location.worstLatencyNs(); }
    /** Buckets per dimension the tables were built with. */
    unsigned granularity() const { return ladder.wlBuckets(); }
};

/**
 * Memoized TimingModel::generate, keyed on all of its inputs. Table
 * generation costs ~0.4 s per parameter set on 4 hardware threads
 * (1.2-1.7 s serial); experiment sweeps construct hundreds of systems,
 * so identical models are built once and shared. The cache's lock is
 * held only to look a key up or insert it: distinct keys build
 * concurrently, and a second request for a key being built waits for
 * that build. Returned references stay valid for the process lifetime.
 */
const TimingModel &cachedTimingModel(const CrossbarParams &params,
                                     unsigned granularity = 8,
                                     double rangeShrink = 1.0);

/** Memoized TimingModel::generateDerived, in the same cache. */
const TimingModel &cachedDerivedModel(const CrossbarParams &params,
                                      const ResetLatencyLaw &law,
                                      unsigned granularity);

} // namespace ladder

#endif // LADDER_RERAM_TIMING_TABLES_HH
