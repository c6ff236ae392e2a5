/** @file Tests for the timing model: its write timing tables, the power
 * table, and the parallel, cached build. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "circuit/fastmodel.hh"
#include "reram/timing_tables.hh"

namespace ladder
{
namespace
{

const TimingModel &
model()
{
    static const TimingModel &m = cachedTimingModel(CrossbarParams{});
    return m;
}

TEST(TimingTable, EnvelopeMatchesLaw)
{
    const TimingModel &m = model();
    EXPECT_NEAR(m.ladderSurface->worstLatencyNs(), 658.0, 1.0);
    EXPECT_GE(m.ladderSurface->bestLatencyNs(), 29.0);
    EXPECT_LT(m.ladderSurface->bestLatencyNs(), 300.0);
}

TEST(TimingTable, MonotoneInAllDimensions)
{
    const TimingModel &m = model();
    const LatencySurface &t = *m.ladderSurface;
    for (unsigned wb = 0; wb + 1 < t.wlBuckets(); ++wb)
        for (unsigned bb = 0; bb < t.blBuckets(); ++bb)
            for (unsigned cb = 0; cb < t.contentBuckets(); ++cb)
                EXPECT_LE(t.at(wb, bb, cb).latencyNs,
                          t.at(wb + 1, bb, cb).latencyNs);
    for (unsigned wb = 0; wb < t.wlBuckets(); ++wb)
        for (unsigned bb = 0; bb + 1 < t.blBuckets(); ++bb)
            for (unsigned cb = 0; cb < t.contentBuckets(); ++cb)
                EXPECT_LE(t.at(wb, bb, cb).latencyNs,
                          t.at(wb, bb + 1, cb).latencyNs);
    for (unsigned wb = 0; wb < t.wlBuckets(); ++wb)
        for (unsigned bb = 0; bb < t.blBuckets(); ++bb)
            for (unsigned cb = 0; cb + 1 < t.contentBuckets(); ++cb)
                EXPECT_LE(t.at(wb, bb, cb).latencyNs,
                          t.at(wb, bb, cb + 1).latencyNs);
}

TEST(TimingTable, LookupAlwaysSafe)
{
    // Property: for any operating point, the bucketed lookup must be
    // at least the latency the circuit model demands at that point.
    const TimingModel &m = model();
    SneakPathModel fast(m.params);
    for (unsigned wl : {0u, 100u, 300u, 511u}) {
        for (unsigned slot : {0u, 20u, 63u}) {
            for (unsigned count : {0u, 64u, 200u, 448u, 512u}) {
                ResetCondition cond{wl, slot, count,
                                    (unsigned)m.params.rows};
                double needed =
                    m.law.latencyNs(fast.evaluate(cond).minDropVolts);
                double granted =
                    m.ladderSurface->lookup(wl, slot * 8 + 7, count)
                        .latencyNs;
                EXPECT_GE(granted + 1e-9, needed)
                    << "wl=" << wl << " slot=" << slot
                    << " count=" << count;
            }
        }
    }
}

TEST(TimingTable, ContentRoundsUp)
{
    const LatencySurface &t = *model().ladderSurface;
    // A count exactly on a bucket boundary (e.g. 64) must use the
    // bucket whose worst-case corner covers it (bucket 0 covers 1-64).
    const TimingEntry &at64 = t.lookup(511, 511, 64);
    const TimingEntry &at65 = t.lookup(511, 511, 65);
    EXPECT_EQ(at64.latencyNs, t.at(7, 7, 0).latencyNs);
    EXPECT_EQ(at65.latencyNs, t.at(7, 7, 1).latencyNs);
    // Zero content also uses bucket 0.
    EXPECT_EQ(t.lookup(511, 511, 0).latencyNs, t.at(7, 7, 0).latencyNs);
    // Content beyond the maximum clamps to the last bucket.
    EXPECT_EQ(t.lookup(511, 511, 100000).latencyNs,
              t.at(7, 7, 7).latencyNs);
}

TEST(TimingTable, StorageMatchesPaper)
{
    const TimingModel &m = model();
    EXPECT_EQ(m.ladderSurface->storageBytes(), 512u); // paper: 512B
}

TEST(TimingTable, LocationTableHasOneContentBucket)
{
    const TimingModel &m = model();
    EXPECT_EQ(m.locationSurface->contentBuckets(), 1u);
    // Location-only equals LADDER's worst-content column.
    for (unsigned wb = 0; wb < 8; ++wb)
        for (unsigned bb = 0; bb < 8; ++bb)
            EXPECT_DOUBLE_EQ(m.locationSurface->at(wb, bb, 0).latencyNs,
                             m.ladderSurface->at(wb, bb, 7).latencyNs);
}

TEST(TimingTable, BlpWorstCasesWordline)
{
    const TimingModel &m = model();
    // At full bitline content both tables' far corners coincide (both
    // worst-case everything).
    EXPECT_NEAR(m.blpSurface->at(7, 7, 7).latencyNs,
                m.ladderSurface->at(7, 7, 7).latencyNs, 1e-9);
    // At low bitline content BLP still pays the worst-case wordline:
    // it cannot beat LADDER's low-content entry.
    EXPECT_GE(m.blpSurface->at(7, 7, 0).latencyNs,
              m.ladderSurface->at(7, 7, 0).latencyNs);
}

TEST(TimingTable, GranularityAblation)
{
    CrossbarParams p;
    const TimingModel &coarse = cachedTimingModel(p, 4);
    const TimingModel &fine = cachedTimingModel(p, 16);
    // Coarser tables are safe (their best entry is no faster than the
    // finer table's best) and hit the same worst case.
    EXPECT_GE(coarse.ladderSurface->bestLatencyNs(),
              fine.ladderSurface->bestLatencyNs());
    EXPECT_NEAR(coarse.ladderSurface->worstLatencyNs(),
                fine.ladderSurface->worstLatencyNs(), 1.0);
}

TEST(TimingTable, RangeShrinkAblation)
{
    CrossbarParams p;
    const TimingModel &nominal = cachedTimingModel(p, 8, 1.0);
    const TimingModel &shrunk = cachedTimingModel(p, 8, 2.0);
    // Worst case (the baseline spec) is unchanged; the exploitable
    // range below it halves.
    EXPECT_NEAR(shrunk.ladderSurface->worstLatencyNs(),
                nominal.ladderSurface->worstLatencyNs(), 1.0);
    EXPECT_GT(shrunk.ladderSurface->bestLatencyNs(),
              nominal.ladderSurface->bestLatencyNs());
    // The table's best entry is a bucket worst-corner, so it sits at
    // or above the shrunk law's floor of 343.5 ns.
    EXPECT_GE(shrunk.ladderSurface->bestLatencyNs(), 343.4);
    EXPECT_LT(shrunk.ladderSurface->bestLatencyNs(), 480.0);
}

TEST(TimingTable, DerivedModelUsesGivenLaw)
{
    CrossbarParams p;
    const TimingModel &full = cachedTimingModel(p, 8);
    CrossbarParams half = p;
    half.selectedCells = 4;
    TimingModel derived =
        TimingModel::generateDerived(half, full.law, 8);
    // Fewer selected cells -> higher drops -> faster everywhere.
    for (unsigned wb = 0; wb < 8; ++wb)
        for (unsigned bb = 0; bb < 8; ++bb)
            EXPECT_LE(derived.locationSurface->at(wb, bb, 0).latencyNs,
                      full.locationSurface->at(wb, bb, 0).latencyNs +
                          1e-9);
}

TEST(TimingTable, CachedModelIsStable)
{
    CrossbarParams p;
    const TimingModel &a = cachedTimingModel(p, 8);
    const TimingModel &b = cachedTimingModel(p, 8);
    EXPECT_EQ(&a, &b);
    const TimingModel &c = cachedTimingModel(p, 4);
    EXPECT_NE(&a, &c);
}

TEST(TimingTable, SurfacesAttachedByGenerate)
{
    // Every generated model carries its three tables (see
    // test_latency_surface for the lookup contract).
    const TimingModel &m = model();
    ASSERT_NE(m.ladderSurface, nullptr);
    ASSERT_NE(m.blpSurface, nullptr);
    ASSERT_NE(m.locationSurface, nullptr);
    EXPECT_EQ(m.granularity(), 8u);
    EXPECT_EQ(m.worstLatencyNs(), m.locationSurface->worstLatencyNs());
}

TEST(TimingTable, SurfacesAttachedByGenerateDerived)
{
    CrossbarParams half;
    half.selectedCells = 4;
    TimingModel derived =
        TimingModel::generateDerived(half, model().law, 8);
    ASSERT_NE(derived.ladderSurface, nullptr);
    ASSERT_NE(derived.blpSurface, nullptr);
    ASSERT_NE(derived.locationSurface, nullptr);
}

/** Equal down to the last bit (no tolerance, -0.0 != +0.0). */
bool
sameBits(double a, double b)
{
    return std::bit_cast<std::uint64_t>(a) ==
           std::bit_cast<std::uint64_t>(b);
}

/**
 * The model generate() (or, given @p law, generateDerived()) must
 * produce, built serially through the public builders with one direct
 * fast-model solve per request.
 */
TimingModel
serialReference(const CrossbarParams &p, unsigned g, double shrink,
                const ResetLatencyLaw *law)
{
    SneakPathModel fast(p);
    ResetEvaluator eval = [&fast](const ResetCondition &c) {
        return fast.evaluate(c);
    };
    TimingModel ref;
    if (law) {
        ref.law = *law;
    } else {
        ResetCondition best;
        ResetCondition worst{p.rows - 1, p.cols / p.selectedCells - 1,
                             static_cast<unsigned>(p.cols),
                             static_cast<unsigned>(p.rows)};
        ref.bestDropVolts = eval(best).minDropVolts;
        ref.worstDropVolts = eval(worst).minDropVolts;
        ref.law = ResetLatencyLaw::calibrate(ref.bestDropVolts,
                                             ref.worstDropVolts);
        if (shrink > 1.0)
            ref.law = ref.law.shrinkDynamicRange(shrink);
    }
    auto table = [&](ContentDim dim, unsigned contentBuckets) {
        return std::make_shared<const LatencySurface>(LatencySurface::build(
            p, ref.law, eval, dim, g, g, contentBuckets));
    };
    ref.ladderSurface = table(ContentDim::Wordline, g);
    ref.blpSurface = table(ContentDim::Bitline, g);
    ref.locationSurface = table(ContentDim::Wordline, 1);
    ref.power = PowerTable::build(p, eval);
    return ref;
}

void
expectSameTable(const LatencySurface &got, const LatencySurface &want,
                const char *what)
{
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    ASSERT_EQ(got.contentDim(), want.contentDim()) << what;
    ASSERT_EQ(got.contentMax(), want.contentMax()) << what;
    ASSERT_EQ(got.wlBuckets(), want.wlBuckets()) << what;
    ASSERT_EQ(got.blBuckets(), want.blBuckets()) << what;
    ASSERT_EQ(got.contentBuckets(), want.contentBuckets()) << what;
    EXPECT_TRUE(sameBits(got.worstLatencyNs(), want.worstLatencyNs()))
        << what;
    EXPECT_TRUE(sameBits(got.bestLatencyNs(), want.bestLatencyNs()))
        << what;
    for (unsigned wb = 0; wb < want.wlBuckets(); ++wb)
        for (unsigned bb = 0; bb < want.blBuckets(); ++bb)
            for (unsigned cb = 0; cb < want.contentBuckets(); ++cb) {
                const TimingEntry &a = got.at(wb, bb, cb);
                const TimingEntry &b = want.at(wb, bb, cb);
                EXPECT_TRUE(sameBits(a.latencyNs, b.latencyNs))
                    << what << " latency at " << wb << "," << bb << ","
                    << cb;
                EXPECT_TRUE(sameBits(a.powerMw, b.powerMw))
                    << what << " power at " << wb << "," << bb << ","
                    << cb;
            }
}

/**
 * Bitwise equality of every table bucket and power cell (a table's
 * lookups are copies of its buckets; test_latency_surface checks
 * that).
 */
void
expectSameModel(const TimingModel &got, const TimingModel &want)
{
    EXPECT_TRUE(sameBits(got.law.cNs, want.law.cNs));
    EXPECT_TRUE(sameBits(got.law.kPerVolt, want.law.kPerVolt));
    EXPECT_TRUE(sameBits(got.law.fastNs, want.law.fastNs));
    EXPECT_TRUE(sameBits(got.bestDropVolts, want.bestDropVolts));
    EXPECT_TRUE(sameBits(got.worstDropVolts, want.worstDropVolts));
    expectSameTable(*got.ladderSurface, *want.ladderSurface, "ladder");
    expectSameTable(*got.blpSurface, *want.blpSurface, "blp");
    expectSameTable(*got.locationSurface, *want.locationSurface,
                    "location");

    // PowerTable::build's default 4 buckets per dimension, probed at
    // the bucket midpoints it solved: each probe is a distinct cell.
    const unsigned k = 4;
    const unsigned rows = static_cast<unsigned>(want.params.rows);
    const unsigned cols = static_cast<unsigned>(want.params.cols);
    auto mid = [k](unsigned b, unsigned max) {
        return (2 * b + 1) * max / (2 * k);
    };
    for (unsigned wb = 0; wb < k; ++wb)
        for (unsigned bb = 0; bb < k; ++bb)
            for (unsigned cw = 0; cw < k; ++cw)
                for (unsigned cb = 0; cb < k; ++cb) {
                    const unsigned wl = mid(wb, rows);
                    const unsigned bl = mid(bb, cols);
                    const unsigned wlLrs = mid(cw, cols);
                    const unsigned blLrs = mid(cb, rows);
                    EXPECT_TRUE(sameBits(
                        got.power.lookup(wl, bl, wlLrs, blLrs),
                        want.power.lookup(wl, bl, wlLrs, blLrs)))
                        << "power cell " << wb << "," << bb << "," << cw
                        << "," << cb;
                }

}

TEST(TimingModelDeterminism, ParallelBuildEqualsSerialBuild)
{
    CrossbarParams p;
    struct Case
    {
        unsigned granularity;
        double shrink;
    };
    for (Case c : {Case{8, 1.0}, Case{4, 1.0}, Case{16, 1.0},
                   Case{8, 2.0}}) {
        SCOPED_TRACE(testing::Message() << "granularity "
                                        << c.granularity << " shrink "
                                        << c.shrink);
        expectSameModel(cachedTimingModel(p, c.granularity, c.shrink),
                        serialReference(p, c.granularity, c.shrink,
                                        nullptr));
    }
}

TEST(TimingModelDeterminism, DerivedParallelBuildEqualsSerialBuild)
{
    CrossbarParams half;
    half.selectedCells = 4;
    const ResetLatencyLaw &law = model().law;
    expectSameModel(TimingModel::generateDerived(half, law, 8),
                    serialReference(half, 8, 1.0, &law));
}

TEST(TimingModelDeterminism, SolvesEachDistinctConditionOnce)
{
    // The golden stats.json files record the solver counters: the
    // build solves each distinct requested condition exactly once
    // (the tables repeat 128 corners) plus the law's two calibration
    // corners, and every solve converges.
    CrossbarParams p;
    std::vector<ResetCondition> requested;
    ResetEvaluator record = [&](const ResetCondition &c) {
        requested.push_back(c);
        return ResetEvaluation{};
    };
    for (ContentDim dim : {ContentDim::Wordline, ContentDim::Bitline})
        LatencySurface::build(p, ResetLatencyLaw{}, record, dim);
    LatencySurface::build(p, ResetLatencyLaw{}, record,
                          ContentDim::Wordline, 8, 8, 1);
    PowerTable::build(p, record);
    EXPECT_EQ(requested.size(), 1344u);
    std::sort(requested.begin(), requested.end());
    requested.erase(std::unique(requested.begin(), requested.end()),
                    requested.end());
    EXPECT_EQ(requested.size(), 1216u);

    const SolverCounters solver = TimingModel::generate(p).solver;
    EXPECT_EQ(solver.solves, 1218u);
    EXPECT_EQ(solver.iterations, 8694u);
    EXPECT_EQ(solver.stalls, 0u);
}

TEST(TimingModelDeterminism, CalibrationFailureIsFatal)
{
    // An HRS resistance below the LRS one, inside the registry's
    // range: the all-HRS best case then drops less than the all-LRS
    // worst case (0.93 V against 2.17 V), a configuration error,
    // reported as fatal() rather than an assertion abort, and
    // rethrown by the cache on every request.
    CrossbarParams p;
    p.hrsOhms = 1.0;
    EXPECT_THROW(TimingModel::generate(p), std::runtime_error);
    EXPECT_THROW(cachedTimingModel(p), std::runtime_error);
    EXPECT_THROW(cachedTimingModel(p), std::runtime_error);
}

TEST(TimingModelCache, ConcurrentRequestsBuildEachKeyOnce)
{
    // Keys no other test requests, at granularity 2 so each build is
    // small: two distinct generate() keys and one derived half-RESET
    // key. Every thread asks for all three, in a rotated order, so
    // distinct keys build concurrently and each key is requested
    // eight times at once.
    CrossbarParams p;
    CrossbarParams half = p;
    half.selectedCells = p.selectedCells / 2;
    const TimingModel nominal = TimingModel::generate(p, 2, 1.0);
    const TimingModel shrunk = TimingModel::generate(p, 2, 3.0);
    const TimingModel derived =
        TimingModel::generateDerived(half, nominal.law, 2);

    constexpr int threads = 8;
    std::vector<std::array<const TimingModel *, 3>> got(threads);
    std::atomic<int> ready{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < threads)
                std::this_thread::yield();
            for (int i = 0; i < 3; ++i) {
                const int k = (t + i) % 3;
                got[t][k] =
                    k == 0 ? &cachedTimingModel(p, 2, 1.0)
                    : k == 1
                        ? &cachedTimingModel(p, 2, 3.0)
                        : &cachedDerivedModel(half, nominal.law, 2);
            }
        });
    }
    for (auto &w : workers)
        w.join();

    for (int t = 1; t < threads; ++t)
        EXPECT_EQ(got[t], got[0]) << "thread " << t;
    const TimingModel *want[3] = {&nominal, &shrunk, &derived};
    for (int k = 0; k < 3; ++k) {
        SCOPED_TRACE(testing::Message() << "key " << k);
        expectSameModel(*got[0][k], *want[k]);
        EXPECT_EQ(got[0][k]->solver.solves, want[k]->solver.solves);
        EXPECT_EQ(got[0][k]->solver.iterations,
                  want[k]->solver.iterations);
    }
    EXPECT_NE(got[0][0], got[0][1]);
    EXPECT_NE(got[0][0], got[0][2]);
}

TEST(PowerTable, PositiveAndContentSensitive)
{
    const TimingModel &m = model();
    ASSERT_FALSE(m.power.empty());
    double low = m.power.lookup(256, 256, 0, 0);
    double high = m.power.lookup(256, 256, 512, 512);
    EXPECT_GT(low, 0.0);
    EXPECT_GT(high, low);
}

} // namespace
} // namespace ladder
