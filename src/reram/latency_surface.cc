#include "latency_surface.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"
#include "common/profiler.hh"

namespace ladder
{

namespace
{

/** The table's WL/BL bucketing: floor division, clamped to the top
 * bucket (identical to WriteTimingTable::lookup). */
inline unsigned
locationBucket(unsigned index, unsigned buckets, unsigned extent)
{
    return std::min(index * buckets / extent, buckets - 1);
}

/** The table's round-up content bucketing (identical to
 * WriteTimingTable::lookup). */
inline unsigned
contentBucket(unsigned lrsCount, unsigned buckets, unsigned contentMax)
{
    if (lrsCount == 0)
        return 0;
    unsigned clamped = std::min(lrsCount, contentMax);
    unsigned cb = (clamped * buckets + contentMax - 1) / contentMax - 1;
    return std::min(cb, buckets - 1);
}

} // namespace

LatencySurface
LatencySurface::fromTable(const WriteTimingTable &table)
{
    PROF_SCOPE("latency_surface_build");
    LatencySurface s;
    s.rows_ = table.rows();
    s.cols_ = table.cols();
    const unsigned wlB = table.wlBuckets();
    const unsigned blB = table.blBuckets();
    const unsigned cB = table.contentBuckets();
    const unsigned contentMax = table.contentMax();
    ladder_assert(s.rows_ > 0 && s.cols_ > 0 && wlB > 0 && blB > 0 &&
                      cB > 0,
                  "latency surface from empty table");
    s.regions_ = wlB * blB;
    ladder_assert(static_cast<std::size_t>(wlB) * blB <= 0xffffu,
                  "latency surface region index overflows u16");
    s.contentDense_ = cB == 1 ? 1 : contentMax + 1;

    s.wlBase_.resize(s.rows_);
    for (unsigned wl = 0; wl < s.rows_; ++wl)
        s.wlBase_[wl] = static_cast<std::uint16_t>(
            locationBucket(wl, wlB, s.rows_) * blB);
    s.blRegion_.resize(s.cols_);
    for (unsigned bl = 0; bl < s.cols_; ++bl)
        s.blRegion_[bl] = static_cast<std::uint16_t>(
            locationBucket(bl, blB, s.cols_));

    s.entries_.resize(static_cast<std::size_t>(s.regions_) *
                      s.contentDense_);
    std::size_t idx = 0;
    for (unsigned wb = 0; wb < wlB; ++wb) {
        for (unsigned bb = 0; bb < blB; ++bb) {
            for (unsigned c = 0; c < s.contentDense_; ++c)
                s.entries_[idx++] =
                    table.at(wb, bb, contentBucket(c, cB, contentMax));
        }
    }
    return s;
}

SurfaceCheckResult
LatencySurface::verifyAgainst(const WriteTimingTable &table) const
{
    SurfaceCheckResult r;
    const unsigned wlB = table.wlBuckets();
    const unsigned blB = table.blBuckets();
    const unsigned cB = table.contentBuckets();
    const unsigned contentMax = table.contentMax();
    if (rows_ != table.rows() || cols_ != table.cols() ||
        regions_ != wlB * blB ||
        contentDense_ != (cB == 1 ? 1u : contentMax + 1)) {
        r.mismatches = 1;
        return r;
    }
    for (unsigned wl = 0; wl < rows_; ++wl) {
        ++r.cellsChecked;
        if (wlBase_[wl] != locationBucket(wl, wlB, rows_) * blB)
            ++r.mismatches;
    }
    for (unsigned bl = 0; bl < cols_; ++bl) {
        ++r.cellsChecked;
        if (blRegion_[bl] != locationBucket(bl, blB, cols_))
            ++r.mismatches;
    }
    std::size_t idx = 0;
    for (unsigned wb = 0; wb < wlB; ++wb) {
        for (unsigned bb = 0; bb < blB; ++bb) {
            for (unsigned c = 0; c < contentDense_; ++c, ++idx) {
                ++r.cellsChecked;
                const TimingEntry &want =
                    table.at(wb, bb, contentBucket(c, cB, contentMax));
                const TimingEntry &got = entries_[idx];
                // Bit-identical by construction: exact compare.
                if (got.latencyNs != want.latencyNs ||
                    got.powerMw != want.powerMw) {
                    ++r.mismatches;
                    r.maxAbsErrorNs = std::max(
                        r.maxAbsErrorNs,
                        std::abs(got.latencyNs - want.latencyNs));
                }
            }
        }
    }
    return r;
}

std::size_t
LatencySurface::storageBytes() const
{
    return wlBase_.size() * sizeof(std::uint16_t) +
           blRegion_.size() * sizeof(std::uint16_t) +
           entries_.size() * sizeof(TimingEntry);
}

SurfaceErrorReport
checkSurfaceError(const CrossbarParams &params,
                  const WriteTimingTable &table,
                  const ResetLatencyLaw &law,
                  const ResetEvaluator &reference, double relBudget)
{
    SurfaceErrorReport rep;
    rep.budget = relBudget;
    const unsigned rows = table.rows();
    const unsigned cols = table.cols();
    const unsigned slots =
        cols / static_cast<unsigned>(params.selectedCells);
    const unsigned wlB = table.wlBuckets();
    const unsigned blB = table.blBuckets();
    const unsigned cB = table.contentBuckets();
    const unsigned contentMax = table.contentMax();
    double maxMagnitude = 0.0;
    for (unsigned wb = 0; wb < wlB; ++wb) {
        unsigned wl = (wb + 1) * rows / wlB - 1;
        for (unsigned bb = 0; bb < blB; ++bb) {
            unsigned slot = (bb + 1) * slots / blB - 1;
            for (unsigned cb = 0; cb < cB; ++cb) {
                unsigned count = (cb + 1) * contentMax / cB;
                ResetCondition cond;
                cond.wordline = wl;
                cond.byteOffset = slot;
                if (table.contentDim() == ContentDim::Wordline) {
                    cond.wlLrsCount = count;
                    cond.blLrsCount = rows;
                } else {
                    cond.blLrsCount = count;
                    cond.wlLrsCount = cols;
                }
                double refNs =
                    law.latencyNs(reference(cond).minDropVolts);
                double tabNs = table.at(wb, bb, cb).latencyNs;
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
