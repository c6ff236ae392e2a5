#include "split_reset.hh"

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "reram/latency_surface.hh"
#include "schemes/fpc.hh"

namespace ladder
{

namespace
{

/**
 * Half-RESET tables: 4 selected cells per mat evaluated under the
 * *reference* (8-cell) latency law, memoized per granularity.
 */
const TimingModel &
cachedHalfModel(const CrossbarParams &params, unsigned granularity)
{
    // Taken before the cachedTimingModel lock (never the other way
    // round), so concurrent SplitReset System builds cannot deadlock
    // or double-generate.
    static std::mutex cacheMutex;
    static std::vector<std::pair<unsigned, std::unique_ptr<TimingModel>>>
        cache;
    std::lock_guard<std::mutex> lock(cacheMutex);
    for (const auto &entry : cache) {
        if (entry.first == granularity)
            return *entry.second;
    }
    const TimingModel &full = cachedTimingModel(params, granularity);
    CrossbarParams half = params;
    half.selectedCells = params.selectedCells / 2;
    cache.emplace_back(granularity,
                       std::make_unique<TimingModel>(
                           TimingModel::generateDerived(
                               half, full.law, granularity)));
    return *cache.back().second;
}

} // anonymous namespace

SplitResetScheme::SplitResetScheme(const CrossbarParams &params,
                                   unsigned granularity)
    : halfModel_(cachedHalfModel(params, granularity))
{
}

WriteDecision
SplitResetScheme::decideWrite(MemoryController &ctrl, WriteEntry &entry,
                              const LineData &finalData)
{
    (void)ctrl;
    (void)finalData;
    // Compression is decided on the logical data the processor sent.
    bool compressible = fpcCompressible(entry.data);
    if (compressible)
        ++compressibleWrites;
    else
        ++incompressibleWrites;

    const TimingEntry &phase = halfModel_.locationSurface->lookup(
        entry.loc.wordline, entry.loc.worstBitline(), 0);
    unsigned phases = compressible ? 1 : 2;
    // Each half-RESET phase drives half the selected cells.
    return {phase.latencyNs * phases, phase.powerMw, 0.6};
}

WriteBlameHint
SplitResetScheme::attributeWrite(const MemoryController &ctrl,
                                 const WriteEntry &entry,
                                 const WriteDecision &decision) const
{
    (void)ctrl;
    // Re-derive the single-phase latency exactly as decideWrite did;
    // the remainder of the decided latency (the second phase, when
    // the line is incompressible) is scheme overhead.
    const TimingEntry &phase = halfModel_.locationSurface->lookup(
        entry.loc.wordline, entry.loc.worstBitline(), 0);
    double singlePhaseNs =
        phase.latencyNs < decision.latencyNs ? phase.latencyNs
                                             : decision.latencyNs;
    return {halfModel_.location.bestLatencyNs(), singlePhaseNs,
            singlePhaseNs};
}

} // namespace ladder
