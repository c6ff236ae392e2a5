#include "simple_schemes.hh"

namespace ladder
{

WriteDecision
BaselineScheme::decideWrite(MemoryController &ctrl, WriteEntry &entry,
                            const LineData &finalData)
{
    (void)entry;
    (void)finalData;
    const LatencySurface &table = *ctrl.timing().locationSurface;
    // The pessimistic fixed latency: the far corner of the table.
    const TimingEntry &worst =
        table.at(table.wlBuckets() - 1, table.blBuckets() - 1, 0);
    return {worst.latencyNs};
}

WriteDecision
LocationScheme::decideWrite(MemoryController &ctrl, WriteEntry &entry,
                            const LineData &finalData)
{
    (void)finalData;
    const TimingEntry &t = ctrl.locationTiming(
        entry.loc.wordline, entry.loc.worstBitline());
    return {t.latencyNs};
}

WriteBlameHint
LocationScheme::attributeWrite(const MemoryController &ctrl,
                               const WriteEntry &entry,
                               const WriteDecision &decision) const
{
    (void)entry;
    // Content-oblivious: the whole increment over the table's best
    // corner is location blame; content and scheme overhead are zero.
    return {ctrl.timing().locationSurface->bestLatencyNs(),
            decision.latencyNs, decision.latencyNs};
}

WriteDecision
OracleScheme::decideWrite(MemoryController &ctrl, WriteEntry &entry,
                          const LineData &finalData)
{
    (void)finalData;
    const TimingEntry &t = ctrl.ladderTiming(
        entry.loc.wordline, entry.loc.worstBitline(),
        entry.dispatchCw);
    return {t.latencyNs};
}

WriteBlameHint
OracleScheme::attributeWrite(const MemoryController &ctrl,
                             const WriteEntry &entry,
                             const WriteDecision &decision) const
{
    // Same (WL, BL) cell at zero LRS isolates the content penalty —
    // one extra surface/table lookup, only on the attribution path.
    const TimingEntry &bestContent = ctrl.ladderTiming(
        entry.loc.wordline, entry.loc.worstBitline(), 0);
    return {ctrl.timing().ladderSurface->bestLatencyNs(),
            bestContent.latencyNs, decision.latencyNs};
}

WriteDecision
BlpScheme::decideWrite(MemoryController &ctrl, WriteEntry &entry,
                       const LineData &finalData)
{
    (void)finalData;
    const TimingEntry &t = ctrl.blpTiming(
        entry.loc.wordline, entry.loc.worstBitline(),
        entry.dispatchCbl);
    return {t.latencyNs};
}

WriteBlameHint
BlpScheme::attributeWrite(const MemoryController &ctrl,
                          const WriteEntry &entry,
                          const WriteDecision &decision) const
{
    const TimingEntry &bestContent = ctrl.blpTiming(
        entry.loc.wordline, entry.loc.worstBitline(), 0);
    return {ctrl.timing().blpSurface->bestLatencyNs(),
            bestContent.latencyNs, decision.latencyNs};
}

} // namespace ladder
