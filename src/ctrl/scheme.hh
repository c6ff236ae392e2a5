/**
 * @file
 * The write-latency scheme interface: the extension point through which
 * every evaluated design (baseline, Split-reset, BLP, the LADDER
 * variants, Oracle) plugs into the memory controller.
 *
 * The controller owns the mechanics — queues, banks, metadata cache,
 * spill buffer, internal (metadata/SMB) reads — while a scheme decides
 * *what* a write needs before dispatch and *which* RESET latency it is
 * issued with.
 */

#ifndef LADDER_CTRL_SCHEME_HH
#define LADDER_CTRL_SCHEME_HH

#include <string>
#include <vector>

#include "common/bitops.hh"
#include "common/types.hh"
#include "reram/geometry.hh"

namespace ladder
{

class MemoryController;

/** Controller-side state of one queued write. */
struct WriteEntry
{
    std::uint64_t id = 0;
    Addr addr = invalidAddr;       //!< physical (post-remap) address
    LineData data{};               //!< logical payload (CPU view)
    LineData physData{};           //!< encoded payload (pre-FNW)
    BlockLocation loc{};
    Tick enqueueTick = 0;
    /**
     * Tick at which the last scheme-imposed dependency (metadata
     * fill, SMB read, spill retry) resolved; equals enqueueTick for
     * writes that were dispatchable immediately. The blame
     * decomposition's "retry/spill stall" component is
     * readyTick - enqueueTick.
     */
    Tick readyTick = 0;
    bool isMetadataWrite = false;
    bool isRemapCopy = false; //!< wear-leveling line copy

    /** Dependencies a scheme can impose. */
    bool needsSmb = false;
    bool smbReady = true;
    LineData smbData{};
    std::vector<Addr> metaAddrs;   //!< metadata lines this write needs
    unsigned metaPending = 0;      //!< outstanding metadata fills

    /** Scratch for schemes (e.g. packed partial counters). */
    std::uint32_t schemeScratch = 0;

    /**
     * Ground-truth LRS counts of the target page/line, scanned once by
     * the controller immediately before decideWrite (the store cannot
     * change between then and dispatch accounting). Shared by the
     * scheme decision, the content-true power model, and the trace
     * record, which previously each re-scanned the store.
     */
    unsigned dispatchCw = 0;  //!< max per-mat wordline LRS count
    unsigned dispatchCbl = 0; //!< max selected-bitline LRS count

    bool
    ready() const
    {
        return smbReady && metaPending == 0;
    }
};

/** Latency chosen for one write dispatch. */
struct WriteDecision
{
    double latencyNs = 0.0;
    /**
     * Scaling of the content-true array power used for energy
     * accounting; Split-reset sets < 1 because each half-RESET phase
     * drives half the cells.
     */
    double powerScale = 1.0;
};

/**
 * Causal anchor points a scheme reports for one dispatched write so
 * the controller can decompose the chosen RESET latency into base /
 * location / content / scheme-overhead blame components. All three
 * are latencies in nanoseconds on the scheme's own timing model:
 *
 *   baseNs     — best-case tWR for this scheme (best location AND
 *                best content), the irreducible floor;
 *   locationNs — actual WL/BL region, best content: the increment
 *                over baseNs is the location penalty;
 *   contentNs  — actual location and actual content, before any
 *                scheme-mechanic overhead: the increment over
 *                locationNs is the content penalty, and whatever
 *                remains up to the decided latency (e.g. SplitReset's
 *                second half-RESET phase) is scheme overhead.
 *
 * Invariant expected by the controller: baseNs <= locationNs <=
 * contentNs <= decision.latencyNs on the underlying tables (small
 * rounding deviations are tolerated; components are signed).
 */
struct WriteBlameHint
{
    double baseNs = 0.0;
    double locationNs = 0.0;
    double contentNs = 0.0;
};

/** Per-write latency decision plus bookkeeping performed at dispatch. */
class WriteScheme
{
  public:
    virtual ~WriteScheme() = default;

    /** Short identifier used in reports ("LADDER-Est", ...). */
    virtual std::string name() const = 0;

    /**
     * Hook invoked when a data write enters the write queue. Schemes
     * set entry.needsSmb and/or entry.metaAddrs here; the controller
     * then issues the corresponding internal reads and tracks the
     * dependencies.
     */
    virtual void
    onWriteEnqueued(MemoryController &ctrl, WriteEntry &entry)
    {
        (void)ctrl;
        (void)entry;
    }

    /**
     * RESET latency and power for dispatching @p entry now.
     * @p finalData is the raw bit pattern that will be stored (post
     * encoding and FNW). Called exactly once per write, at dispatch;
     * schemes update their metadata values here.
     */
    virtual WriteDecision decideWrite(MemoryController &ctrl,
                                      WriteEntry &entry,
                                      const LineData &finalData) = 0;

    /**
     * Blame anchors for the write just decided by decideWrite; called
     * only when latency attribution (trace.attribution=) is on, after
     * decideWrite and before the entry leaves the queue. Must not
     * mutate scheme state (decideWrite already updated shadow
     * counters etc.). The default — every anchor at the decided
     * latency — attributes the whole tWR to base cost, which is
     * exact for content/location-oblivious schemes.
     */
    virtual WriteBlameHint
    attributeWrite(const MemoryController &ctrl, const WriteEntry &entry,
                   const WriteDecision &decision) const
    {
        (void)ctrl;
        (void)entry;
        return {decision.latencyNs, decision.latencyNs,
                decision.latencyNs};
    }

    /** Hook after the write has been persisted to the array. */
    virtual void
    onWriteComplete(MemoryController &ctrl, WriteEntry &entry)
    {
        (void)ctrl;
        (void)entry;
    }

    /**
     * Address-dependent data encoding applied before the bits reach
     * the array (LADDER-Est's intra-line bit shifting). Must be
     * exactly inverted by decodeData.
     */
    virtual LineData
    encodeData(Addr addr, const LineData &data) const
    {
        (void)addr;
        return data;
    }

    /** Inverse of encodeData, applied on the read path. */
    virtual LineData
    decodeData(Addr addr, const LineData &data) const
    {
        (void)addr;
        return data;
    }

    /**
     * FNW flavour this scheme requires: LADDER variants use the
     * counting-safe constrained mode, everything else classical.
     */
    virtual bool constrainedFnw() const { return false; }
};

} // namespace ladder

#endif // LADDER_CTRL_SCHEME_HH
