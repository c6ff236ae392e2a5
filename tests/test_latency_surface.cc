/**
 * @file
 * Contract tests for the precomputed O(1) latency surfaces
 * (reram/latency_surface.hh) — the headline gate for swapping table
 * lookups out of the controller hot path.
 *
 * Three layers of evidence, from cheap-and-exact to physical:
 *   1. Bit-identity: every surface cell and index-map entry equals
 *      what the WriteTimingTable's bucket formulas would produce
 *      (verifyAgainst + dense raw-index sweeps + boundary cases).
 *   2. Generator differential: re-evaluating the fast sneak-path
 *      model at every bucket corner reproduces every table cell with
 *      exactly zero relative error (checkSurfaceError, budget 0).
 *   3. Physics differential: on a 64x64 crossbar, every table cell is
 *      cross-checked against the full MNA solver under the explicit
 *      relative latency budget kMnaRelLatencyBudget, and the fast
 *      model agrees with MNA over an endpoint-inclusive grid
 *      (circuit/model_check.hh).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <random>
#include <vector>

#include "circuit/fastmodel.hh"
#include "circuit/mna.hh"
#include "circuit/model_check.hh"
#include "reram/latency_surface.hh"
#include "reram/timing_tables.hh"

namespace ladder
{
namespace
{

/**
 * Relative latency budget for the surface-vs-MNA differential. The
 * fast model tracks MNA drops to ~5 mV (test_fastmodel); through the
 * calibrated exponential drop->latency law on a 64x64 array that
 * amplifies to at most a few percent of latency. 10% is a deliberate
 * 2-3x cushion so the gate flags real model drift, not solver noise.
 */
constexpr double kMnaRelLatencyBudget = 0.10;

const TimingModel &
model()
{
    return cachedTimingModel(CrossbarParams{});
}

ResetEvaluator
fastEvaluator(const SneakPathModel &fast)
{
    return [&fast](const ResetCondition &c) { return fast.evaluate(c); };
}

TEST(LatencySurface, AttachedAndBitIdentical)
{
    const TimingModel &m = model();
    ASSERT_NE(m.ladderSurface, nullptr);
    ASSERT_NE(m.blpSurface, nullptr);
    ASSERT_NE(m.locationSurface, nullptr);

    SurfaceCheckResult ladder = m.ladderSurface->verifyAgainst(m.ladder);
    EXPECT_TRUE(ladder.ok());
    EXPECT_GT(ladder.cellsChecked, 0u);
    EXPECT_EQ(ladder.mismatches, 0u);
    EXPECT_EQ(ladder.maxAbsErrorNs, 0.0);

    EXPECT_TRUE(m.blpSurface->verifyAgainst(m.blp).ok());
    EXPECT_TRUE(m.locationSurface->verifyAgainst(m.location).ok());
}

TEST(LatencySurface, ShapeMatchesTable)
{
    const TimingModel &m = model();
    const LatencySurface &s = *m.ladderSurface;
    EXPECT_EQ(s.rows(), m.ladder.rows());
    EXPECT_EQ(s.cols(), m.ladder.cols());
    EXPECT_EQ(s.regionCount(),
              m.ladder.wlBuckets() * m.ladder.blBuckets());
    // Dense content axis: one entry per possible LRS count (0..max).
    EXPECT_EQ(s.contentDense(), m.ladder.contentMax() + 1);
    EXPECT_EQ(s.entryCount(),
              static_cast<std::size_t>(s.regionCount()) *
                  s.contentDense());
    EXPECT_GT(s.storageBytes(), 0u);
    // The location table has a single content bucket, so its surface
    // collapses the content axis entirely.
    EXPECT_EQ(m.locationSurface->contentDense(), 1u);
}

TEST(LatencySurface, MatchesTableOnDenseSweeps)
{
    const TimingModel &m = model();
    const unsigned rows = m.ladder.rows();
    const unsigned cols = m.ladder.cols();
    const unsigned cmax = m.ladder.contentMax();
    // Full (bitline x content) grid at corner + middle wordlines.
    for (unsigned wl : {0u, rows / 2, rows - 1}) {
        for (unsigned bl = 0; bl < cols; ++bl) {
            for (unsigned c = 0; c <= cmax; ++c) {
                const TimingEntry &tab = m.ladder.lookup(wl, bl, c);
                const TimingEntry &sur =
                    m.ladderSurface->lookup(wl, bl, c);
                ASSERT_EQ(sur.latencyNs, tab.latencyNs)
                    << "wl " << wl << " bl " << bl << " c " << c;
                ASSERT_EQ(sur.powerMw, tab.powerMw);
            }
        }
    }
    // Full wordline sweep at bitline/content corners.
    for (unsigned wl = 0; wl < rows; ++wl) {
        for (unsigned bl : {0u, cols - 1}) {
            for (unsigned c : {0u, 1u, cmax / 2, cmax}) {
                EXPECT_EQ(m.ladderSurface->lookup(wl, bl, c).latencyNs,
                          m.ladder.lookup(wl, bl, c).latencyNs);
            }
        }
    }
}

TEST(LatencySurface, MatchesTableOnRandomTriples)
{
    const TimingModel &m = model();
    std::mt19937 rng(20260809);
    std::uniform_int_distribution<unsigned> wlD(0, m.ladder.rows() - 1);
    std::uniform_int_distribution<unsigned> blD(0, m.ladder.cols() - 1);
    // Deliberately overshoot contentMax to exercise clamping.
    std::uniform_int_distribution<unsigned> cD(
        0, m.ladder.contentMax() * 2);
    for (int i = 0; i < 50000; ++i) {
        unsigned wl = wlD(rng), bl = blD(rng), c = cD(rng);
        ASSERT_EQ(m.ladderSurface->lookup(wl, bl, c).latencyNs,
                  m.ladder.lookup(wl, bl, c).latencyNs)
            << "wl " << wl << " bl " << bl << " c " << c;
        ASSERT_EQ(m.blpSurface->lookup(wl, bl, c).latencyNs,
                  m.blp.lookup(wl, bl, c).latencyNs);
        ASSERT_EQ(m.locationSurface->lookup(wl, bl, c).latencyNs,
                  m.location.lookup(wl, bl, c).latencyNs);
    }
}

TEST(LatencySurface, BoundaryCases)
{
    const TimingModel &m = model();
    const LatencySurface &s = *m.ladderSurface;
    const unsigned rows = m.ladder.rows();
    const unsigned cols = m.ladder.cols();
    const unsigned cmax = m.ladder.contentMax();
    const unsigned wlB = m.ladder.wlBuckets();
    const unsigned blB = m.ladder.blBuckets();

    // LRS = 0 at every location corner lands in content bucket 0.
    for (unsigned wl : {0u, rows - 1}) {
        for (unsigned bl : {0u, cols - 1}) {
            unsigned wb = wl == 0 ? 0 : wlB - 1;
            unsigned bb = bl == 0 ? 0 : blB - 1;
            EXPECT_EQ(s.lookup(wl, bl, 0).latencyNs,
                      m.ladder.at(wb, bb, 0).latencyNs);
            // LRS = max lands in the last bucket.
            EXPECT_EQ(s.lookup(wl, bl, cmax).latencyNs,
                      m.ladder.at(wb, bb, m.ladder.contentBuckets() - 1)
                          .latencyNs);
        }
    }

    // Content rounds up exactly like the table: 64 LRS cells stay in
    // bucket 0, 65 tip into bucket 1 (mirrors
    // TimingTable.ContentRoundsUp).
    unsigned step = cmax / m.ladder.contentBuckets();
    EXPECT_EQ(s.lookup(rows - 1, cols - 1, step).latencyNs,
              m.ladder.at(wlB - 1, blB - 1, 0).latencyNs);
    EXPECT_EQ(s.lookup(rows - 1, cols - 1, step + 1).latencyNs,
              m.ladder.at(wlB - 1, blB - 1, 1).latencyNs);

    // Counts beyond the physical maximum clamp to the top bucket.
    EXPECT_EQ(s.lookup(rows - 1, cols - 1, 100000).latencyNs,
              s.lookup(rows - 1, cols - 1, cmax).latencyNs);

    // The location surface ignores content entirely.
    EXPECT_EQ(m.locationSurface->lookup(3, 7, 0).latencyNs,
              m.locationSurface->lookup(3, 7, cmax).latencyNs);
}

TEST(LatencySurface, VerifyDetectsTableDrift)
{
    const TimingModel &m = model();
    // A surface built from the LADDER table must not verify against
    // the BLP table (same shape, different physics)...
    SurfaceCheckResult drift = m.ladderSurface->verifyAgainst(m.blp);
    EXPECT_FALSE(drift.ok());
    EXPECT_GT(drift.mismatches, 0u);
    EXPECT_GT(drift.maxAbsErrorNs, 0.0);
    // ...nor against a table with a different shape.
    EXPECT_FALSE(m.ladderSurface->verifyAgainst(m.location).ok());
}

TEST(LatencySurface, GeneratingEvaluatorReproducesEveryCellExactly)
{
    // checkSurfaceError with the generating fast model as reference
    // must find zero error at *every* bucket corner — the surface (and
    // table) is a pure cache of these evaluations. Budget 0: any
    // nonzero relative error is a violation.
    const TimingModel &m = model();
    SneakPathModel fast(m.params);
    ResetEvaluator eval = fastEvaluator(fast);
    for (const WriteTimingTable *t :
         {&m.ladder, &m.blp, &m.location}) {
        SurfaceErrorReport rep =
            checkSurfaceError(m.params, *t, m.law, eval, 0.0);
        EXPECT_TRUE(rep.ok());
        EXPECT_EQ(rep.violations, 0u);
        EXPECT_EQ(rep.maxRelError, 0.0);
        EXPECT_EQ(rep.cellsChecked,
                  static_cast<std::size_t>(t->wlBuckets()) *
                      t->blBuckets() * t->contentBuckets());
    }
}

TEST(LatencySurface, DerivedModelSurfacesVerify)
{
    const TimingModel &m = model();
    CrossbarParams half = m.params;
    half.selectedCells = 4;
    TimingModel derived = TimingModel::generateDerived(half, m.law);
    ASSERT_NE(derived.ladderSurface, nullptr);
    ASSERT_NE(derived.blpSurface, nullptr);
    ASSERT_NE(derived.locationSurface, nullptr);
    EXPECT_TRUE(derived.ladderSurface->verifyAgainst(derived.ladder).ok());
    EXPECT_TRUE(derived.blpSurface->verifyAgainst(derived.blp).ok());
    EXPECT_TRUE(
        derived.locationSurface->verifyAgainst(derived.location).ok());
}

/**
 * The physics gate: on a 64x64 crossbar (MNA-tractable; the scale
 * test_fastmodel cross-validates at), every cell of every table —
 * and therefore every distinct value of every surface — must agree
 * with a direct full-MNA evaluation within kMnaRelLatencyBudget.
 */
TEST(LatencySurfaceMna, EveryCellWithinBudgetOfMna)
{
    CrossbarParams p;
    p.rows = 64;
    p.cols = 64;
    TimingModel small = TimingModel::generate(p, 4);
    CrossbarMna mna(p);
    ResetEvaluator ref = [&mna](const ResetCondition &c) {
        return mna.evaluate(c);
    };
    for (const WriteTimingTable *t :
         {&small.ladder, &small.blp, &small.location}) {
        SurfaceErrorReport rep = checkSurfaceError(
            p, *t, small.law, ref, kMnaRelLatencyBudget);
        EXPECT_TRUE(rep.ok())
            << "violations " << rep.violations << " of "
            << rep.cellsChecked << ", max rel error "
            << rep.maxRelError;
        EXPECT_EQ(rep.cellsChecked,
                  static_cast<std::size_t>(t->wlBuckets()) *
                      t->blBuckets() * t->contentBuckets());
    }
    // The surfaces are bit-identical to these tables, so the same
    // budget bounds every surface lookup.
    EXPECT_TRUE(small.ladderSurface->verifyAgainst(small.ladder).ok());
}

TEST(LatencySurfaceMna, FastModelAgreesWithMnaOnGrid)
{
    CrossbarParams p;
    p.rows = 64;
    p.cols = 64;
    TimingModel small = TimingModel::generate(p, 4);
    SneakPathModel fast(p);
    CrossbarMna mna(p);
    CircuitEvaluator refEval = [&mna](const ResetCondition &c) {
        return mna.evaluate(c);
    };
    CircuitEvaluator candEval = [&fast](const ResetCondition &c) {
        return fast.evaluate(c);
    };
    ModelAgreement a =
        checkEvaluatorAgreement(p, small.law, refEval, candEval, 3, 3,
                                kMnaRelLatencyBudget);
    EXPECT_TRUE(a.ok()) << "violations " << a.violations << " of "
                        << a.points << ", max rel latency error "
                        << a.maxRelLatencyError << ", max drop delta "
                        << a.maxAbsDropDeltaVolts << " V";
    EXPECT_GT(a.points, 0u);
    // Drop-level agreement at the tolerance test_fastmodel spot-checks.
    EXPECT_LE(a.maxAbsDropDeltaVolts, 6e-3);
}

} // namespace
} // namespace ladder
