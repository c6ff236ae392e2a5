/**
 * @file
 * The timing model a memory controller needs, generated in one shot
 * from the fast sneak-path model: the calibrated latency law, the
 * LADDER, BLP and location-only write timing tables (each one
 * LatencySurface, see latency_surface.hh) and the content-true power
 * table, plus the process-wide cache that builds each distinct model
 * once.
 */

#ifndef LADDER_RERAM_TIMING_TABLES_HH
#define LADDER_RERAM_TIMING_TABLES_HH

#include <memory>
#include <vector>

#include "latency_surface.hh"

namespace ladder
{

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
 * The full timing-model bundle a controller needs: calibrated law,
 * the LADDER and BLP tables, and a location-only table.
 */
struct TimingModel
{
    CrossbarParams params;
    ResetLatencyLaw law;
    PowerTable power; //!< content-true power (energy model)
    double bestDropVolts = 0.0;
    double worstDropVolts = 0.0;
    /** Every circuit solve this model's build ran (stats.json). */
    SolverCounters solver;

    /**
     * The three timing tables. Shared pointers keep TimingModel
     * copyable without duplicating the dense state; always non-null
     * after generate().
     */
    std::shared_ptr<const LatencySurface> ladderSurface; //!< WL content
    std::shared_ptr<const LatencySurface> blpSurface;    //!< BL content
    /** Content worst-cased (one content bucket). */
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
    double worstLatencyNs() const { return locationSurface->worstLatencyNs(); }
    /** Buckets per dimension the tables were built with. */
    unsigned granularity() const { return ladderSurface->wlBuckets(); }
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
