#include "split_reset.hh"

#include "reram/latency_surface.hh"
#include "schemes/fpc.hh"

namespace ladder
{

namespace
{

/**
 * Half-RESET tables: half the selected cells per mat, priced on the
 * reference model's law so both modes share one latency scale.
 */
const TimingModel &
halfResetModel(const TimingModel &full)
{
    CrossbarParams half = full.params;
    half.selectedCells = full.params.selectedCells / 2;
    return cachedDerivedModel(half, full.law, full.granularity());
}

} // anonymous namespace

SplitResetScheme::SplitResetScheme(const TimingModel &model)
    : halfModel_(halfResetModel(model))
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
    return {phase.latencyNs * phases, 0.6};
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
    return {halfModel_.locationSurface->bestLatencyNs(), singlePhaseNs,
            singlePhaseNs};
}

} // namespace ladder
