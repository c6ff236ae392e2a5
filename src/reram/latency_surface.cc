#include "latency_surface.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.hh"

namespace ladder
{

namespace
{

/** WL/BL bucketing: floor division, clamped to the top bucket. */
inline unsigned
locationBucket(unsigned index, unsigned buckets, unsigned extent)
{
    return std::min(index * buckets / extent, buckets - 1);
}

/**
 * Content bucketing rounds *up*: a count on a bucket boundary uses the
 * bucket whose worst-case corner covers it; zero uses bucket 0 and
 * counts beyond @p contentMax clamp to the top bucket.
 */
inline unsigned
contentBucket(unsigned lrsCount, unsigned buckets, unsigned contentMax)
{
    if (lrsCount == 0)
        return 0;
    unsigned clamped = std::min(lrsCount, contentMax);
    unsigned cb = (clamped * buckets + contentMax - 1) / contentMax - 1;
    return std::min(cb, buckets - 1);
}

/** Worst (largest) content count of content bucket @p cb. */
inline unsigned
cornerCount(unsigned cb, unsigned buckets, unsigned contentMax)
{
    return (cb + 1) * contentMax / buckets;
}

/**
 * The operating point bucket (wb, bb, cb) of @p s is generated at: its
 * worst (farthest-from-driver) wordline and byte slot and its largest
 * content count, with the other content dimension worst-cased.
 */
ResetCondition
bucketCorner(const CrossbarParams &params, const LatencySurface &s,
             unsigned wb, unsigned bb, unsigned cb)
{
    const unsigned slots =
        s.cols() / static_cast<unsigned>(params.selectedCells);
    const unsigned count =
        cornerCount(cb, s.contentBuckets(), s.contentMax());
    ResetCondition cond;
    cond.wordline = (wb + 1) * s.rows() / s.wlBuckets() - 1;
    cond.byteOffset = (bb + 1) * slots / s.blBuckets() - 1;
    if (s.contentDim() == ContentDim::Wordline) {
        cond.wlLrsCount = count;
        cond.blLrsCount = s.rows();
    } else {
        cond.blLrsCount = count;
        cond.wlLrsCount = s.cols();
    }
    return cond;
}

} // namespace

LatencySurface
LatencySurface::build(const CrossbarParams &params,
                      const ResetLatencyLaw &law,
                      const ResetEvaluator &eval, ContentDim dim,
                      unsigned wlBuckets, unsigned blBuckets,
                      unsigned contentBuckets)
{
    ladder_assert(wlBuckets > 0 && blBuckets > 0 && contentBuckets > 0,
                  "timing table: zero buckets");
    ladder_assert(static_cast<std::size_t>(wlBuckets) * blBuckets <=
                      0xffffu,
                  "latency surface region index overflows u16");
    LatencySurface s;
    s.rows_ = static_cast<unsigned>(params.rows);
    s.cols_ = static_cast<unsigned>(params.cols);
    s.wlBuckets_ = wlBuckets;
    s.blBuckets_ = blBuckets;
    s.contentBuckets_ = contentBuckets;
    s.dim_ = dim;
    s.contentMax_ = dim == ContentDim::Wordline ? s.cols_ : s.rows_;
    s.contentDense_ = contentBuckets == 1 ? 1 : s.contentMax_ + 1;

    // One circuit evaluation per bucket, at the bucket's corner.
    std::vector<TimingEntry> grid(static_cast<std::size_t>(wlBuckets) *
                                  blBuckets * contentBuckets);
    double worst = 0.0;
    double best = std::numeric_limits<double>::max();
    std::size_t idx = 0;
    for (unsigned wb = 0; wb < wlBuckets; ++wb) {
        for (unsigned bb = 0; bb < blBuckets; ++bb) {
            for (unsigned cb = 0; cb < contentBuckets; ++cb) {
                ResetEvaluation ev = eval(bucketCorner(params, s, wb, bb, cb));
                TimingEntry &entry = grid[idx++];
                entry.latencyNs = law.latencyNs(ev.minDropVolts);
                entry.powerMw = ev.sourcePowerWatts * 1e3;
                worst = std::max(worst, entry.latencyNs);
                best = std::min(best, entry.latencyNs);
            }
        }
    }
    s.worstNs_ = worst;
    s.bestNs_ = best;

    // Expand to the dense form: one index per row and per column, and
    // one entry per LRS count, each its covering bucket's entry.
    s.wlBase_.resize(s.rows_);
    for (unsigned wl = 0; wl < s.rows_; ++wl)
        s.wlBase_[wl] = static_cast<std::uint16_t>(
            locationBucket(wl, wlBuckets, s.rows_) * blBuckets);
    s.blRegion_.resize(s.cols_);
    for (unsigned bl = 0; bl < s.cols_; ++bl)
        s.blRegion_[bl] = static_cast<std::uint16_t>(
            locationBucket(bl, blBuckets, s.cols_));
    const std::size_t regions =
        static_cast<std::size_t>(wlBuckets) * blBuckets;
    s.entries_.resize(regions * s.contentDense_);
    idx = 0;
    for (std::size_t region = 0; region < regions; ++region) {
        for (unsigned c = 0; c < s.contentDense_; ++c)
            s.entries_[idx++] =
                grid[region * contentBuckets +
                     contentBucket(c, contentBuckets, s.contentMax_)];
    }
    return s;
}

const TimingEntry &
LatencySurface::at(unsigned wlBucket, unsigned blBucket,
                   unsigned contentBucket) const
{
    ladder_assert(wlBucket < wlBuckets_ && blBucket < blBuckets_ &&
                      contentBucket < contentBuckets_,
                  "timing table bucket out of range");
    const unsigned c = std::min(
        cornerCount(contentBucket, contentBuckets_, contentMax_),
        contentDense_ - 1);
    return entries_[(static_cast<std::size_t>(wlBucket) * blBuckets_ +
                     blBucket) *
                        contentDense_ +
                    c];
}

SurfaceErrorReport
checkSurfaceError(const CrossbarParams &params,
                  const LatencySurface &surface,
                  const ResetLatencyLaw &law,
                  const ResetEvaluator &reference, double relBudget)
{
    SurfaceErrorReport rep;
    rep.budget = relBudget;
    double maxMagnitude = 0.0;
    for (unsigned wb = 0; wb < surface.wlBuckets(); ++wb) {
        for (unsigned bb = 0; bb < surface.blBuckets(); ++bb) {
            for (unsigned cb = 0; cb < surface.contentBuckets(); ++cb) {
                double refNs = law.latencyNs(
                    reference(bucketCorner(params, surface, wb, bb, cb))
                        .minDropVolts);
                double tabNs = surface.at(wb, bb, cb).latencyNs;
                ladder_assert(refNs > 0.0,
                              "reference latency must be positive");
                double rel = (tabNs - refNs) / refNs;
                ++rep.cellsChecked;
                if (std::abs(rel) > std::abs(maxMagnitude))
                    maxMagnitude = rel;
                if (std::abs(rel) > relBudget)
                    ++rep.violations;
            }
        }
    }
    rep.maxRelError = maxMagnitude;
    return rep;
}

} // namespace ladder
