/**
 * @file
 * Contract tests for the write timing tables in their dense O(1) form
 * (reram/latency_surface.hh), the form the controller reads on every
 * write.
 *
 * Three layers of evidence, from cheap-and-exact to physical:
 *   1. Bucketing: lookup at every raw (wordline, bitline, LRS count)
 *      returns the entry of the bucket that covers it, by the bucket
 *      formulas written out below, plus the boundary cases.
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

#include <algorithm>
#include <cstddef>
#include <utility>
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

/** The three tables of @p m, named for failure messages. */
std::vector<std::pair<const char *, const LatencySurface *>>
tables(const TimingModel &m)
{
    return {{"ladder", m.ladderSurface.get()},
            {"blp", m.blpSurface.get()},
            {"location", m.locationSurface.get()}};
}

/**
 * Lookup at every raw (wordline, bitline, LRS count), counts one past
 * the maximum included, equals at() of the bucket covering it:
 * wordline and bitline buckets by floor division clamped to the top
 * bucket, the content bucket rounded up (0 stays in bucket 0, counts
 * beyond the maximum clamp to the top bucket).
 */
void
expectLookupMatchesBuckets(const LatencySurface &s, const char *what)
{
    const unsigned rows = s.rows();
    const unsigned cols = s.cols();
    const unsigned wlB = s.wlBuckets();
    const unsigned blB = s.blBuckets();
    const unsigned cB = s.contentBuckets();
    const unsigned cmax = s.contentMax();
    // The content bucket of every count, one past the maximum included.
    std::vector<unsigned> cbOf(cmax + 2);
    for (unsigned c = 0; c < cbOf.size(); ++c) {
        const unsigned clamped = std::min(c, cmax);
        cbOf[c] = clamped == 0
                      ? 0
                      : std::min((clamped * cB + cmax - 1) / cmax - 1,
                                 cB - 1);
    }
    std::vector<const TimingEntry *> bucket(cB);
    std::size_t checked = 0;
    std::size_t mismatches = 0;
    for (unsigned wl = 0; wl < rows; ++wl) {
        const unsigned wb = std::min(wl * wlB / rows, wlB - 1);
        for (unsigned bl = 0; bl < cols; ++bl) {
            const unsigned bb = std::min(bl * blB / cols, blB - 1);
            for (unsigned cb = 0; cb < cB; ++cb)
                bucket[cb] = &s.at(wb, bb, cb);
            for (unsigned c = 0; c < cbOf.size(); ++c) {
                const TimingEntry &got = s.lookup(wl, bl, c);
                const TimingEntry &want = *bucket[cbOf[c]];
                ++checked;
                if (got.latencyNs != want.latencyNs ||
                    got.powerMw != want.powerMw) {
                    if (mismatches++ == 0)
                        ADD_FAILURE() << what << ": first mismatch at wl "
                                      << wl << " bl " << bl << " c " << c;
                }
            }
        }
    }
    EXPECT_EQ(checked, static_cast<std::size_t>(rows) * cols * (cmax + 2))
        << what;
    EXPECT_EQ(mismatches, 0u) << what;
}

TEST(LatencySurface, LookupIsCoveringBucketEverywhere)
{
    const TimingModel &m = model();
    for (const auto &[what, s] : tables(m)) {
        ASSERT_NE(s, nullptr) << what;
        expectLookupMatchesBuckets(*s, what);
    }
}

TEST(LatencySurface, Shape)
{
    const TimingModel &m = model();
    const unsigned rows = static_cast<unsigned>(m.params.rows);
    const unsigned cols = static_cast<unsigned>(m.params.cols);
    for (const auto &[what, s] : tables(m)) {
        EXPECT_EQ(s->rows(), rows) << what;
        EXPECT_EQ(s->cols(), cols) << what;
        EXPECT_EQ(s->wlBuckets(), 8u) << what;
        EXPECT_EQ(s->blBuckets(), 8u) << what;
    }
    // LADDER resolves wordline content, BLP bitline content, and the
    // location table collapses the content axis to one bucket.
    EXPECT_EQ(m.ladderSurface->contentDim(), ContentDim::Wordline);
    EXPECT_EQ(m.ladderSurface->contentMax(), cols);
    EXPECT_EQ(m.ladderSurface->contentBuckets(), 8u);
    EXPECT_EQ(m.blpSurface->contentDim(), ContentDim::Bitline);
    EXPECT_EQ(m.blpSurface->contentMax(), rows);
    EXPECT_EQ(m.blpSurface->contentBuckets(), 8u);
    EXPECT_EQ(m.locationSurface->contentBuckets(), 1u);
    EXPECT_EQ(m.locationSurface->storageBytes(), 64u);
}

TEST(LatencySurface, BoundaryCases)
{
    const TimingModel &m = model();
    const LatencySurface &s = *m.ladderSurface;
    const unsigned rows = s.rows();
    const unsigned cols = s.cols();
    const unsigned cmax = s.contentMax();
    const unsigned wlB = s.wlBuckets();
    const unsigned blB = s.blBuckets();

    // LRS = 0 at every location corner lands in content bucket 0.
    for (unsigned wl : {0u, rows - 1}) {
        for (unsigned bl : {0u, cols - 1}) {
            unsigned wb = wl == 0 ? 0 : wlB - 1;
            unsigned bb = bl == 0 ? 0 : blB - 1;
            EXPECT_EQ(s.lookup(wl, bl, 0).latencyNs,
                      s.at(wb, bb, 0).latencyNs);
            // LRS = max lands in the last bucket.
            EXPECT_EQ(s.lookup(wl, bl, cmax).latencyNs,
                      s.at(wb, bb, s.contentBuckets() - 1)
                          .latencyNs);
        }
    }

    // Content rounds up: 64 LRS cells stay in bucket 0, 65 tip into
    // bucket 1 (mirrors TimingTable.ContentRoundsUp).
    unsigned step = cmax / s.contentBuckets();
    EXPECT_EQ(s.lookup(rows - 1, cols - 1, step).latencyNs,
              s.at(wlB - 1, blB - 1, 0).latencyNs);
    EXPECT_EQ(s.lookup(rows - 1, cols - 1, step + 1).latencyNs,
              s.at(wlB - 1, blB - 1, 1).latencyNs);

    // Counts beyond the physical maximum clamp to the top bucket.
    EXPECT_EQ(s.lookup(rows - 1, cols - 1, 100000).latencyNs,
              s.lookup(rows - 1, cols - 1, cmax).latencyNs);

    // The location surface ignores content entirely.
    EXPECT_EQ(m.locationSurface->lookup(3, 7, 0).latencyNs,
              m.locationSurface->lookup(3, 7, cmax).latencyNs);
}

TEST(LatencySurface, GeneratingEvaluatorReproducesEveryCellExactly)
{
    // checkSurfaceError with the generating fast model as reference
    // must find zero error at *every* bucket corner — the table is a
    // pure cache of these evaluations. Budget 0: any nonzero relative
    // error is a violation.
    const TimingModel &m = model();
    SneakPathModel fast(m.params);
    ResetEvaluator eval = fastEvaluator(fast);
    for (const auto &[what, t] : tables(m)) {
        SCOPED_TRACE(what);
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

TEST(LatencySurface, DerivedModelLookupIsCoveringBucket)
{
    // Split-reset prices its half-RESET phases on the location table
    // of a derived model.
    const TimingModel &m = model();
    CrossbarParams half = m.params;
    half.selectedCells = 4;
    TimingModel derived = TimingModel::generateDerived(half, m.law);
    ASSERT_NE(derived.locationSurface, nullptr);
    expectLookupMatchesBuckets(*derived.locationSurface, "location");
}

/**
 * The physics gate: on a 64x64 crossbar (MNA-tractable; the scale
 * test_fastmodel cross-validates at), every cell of every table —
 * and therefore every value a lookup returns — must agree with a
 * direct full-MNA evaluation within kMnaRelLatencyBudget.
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
    for (const auto &[what, t] : tables(small)) {
        SCOPED_TRACE(what);
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
