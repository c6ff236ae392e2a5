/**
 * @file
 * Synthetic instruction/memory trace generation. Each workload is an
 * endless deterministic stream of TraceRecords combining sequential
 * streams, a Zipf-popular hot set (cache-resident reuse), and uniform
 * working-set accesses (pointer-chase style), with per-benchmark
 * memory intensity and store content.
 */

#ifndef LADDER_TRACE_SYNTH_HH
#define LADDER_TRACE_SYNTH_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "trace/data_patterns.hh"

namespace ladder
{

/** One unit of work for the core model. */
struct TraceRecord
{
    std::uint32_t nonMemBefore = 0; //!< plain instructions first
    bool isWrite = false;
    bool dependent = false;         //!< load feeding the next address
    Addr lineAddr = 0;              //!< line-aligned, region-relative
    unsigned storeOffset = 0;       //!< byte offset of the store
    std::array<std::uint8_t, 8> storeData{};
};

/** Tunable knobs of a synthetic workload. */
struct WorkloadParams
{
    std::string name = "synthetic";
    double memFraction = 0.25;      //!< memory ops per instruction
    double writeFraction = 0.30;    //!< stores among memory ops
    std::uint64_t workingSetPages = 16384; //!< 64MB default
    double streamFraction = 0.55;   //!< sequential stream accesses
    double hotFraction = 0.30;      //!< hot-set (cache-friendly)
    std::uint64_t hotPages = 96;    //!< hot-set size
    unsigned streams = 8;           //!< concurrent sequential streams
    double dependentFraction = 0.0; //!< serialized (chasing) loads
    unsigned dwellPerLine = 8;      //!< accesses per 64B stream line
    PatternMix pattern{1, 1, 1, 1, 1, 1};
    std::uint64_t seed = 1;
};

/** Anything that produces TraceRecords. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;
    /** Next record; traces never end (replay loops if finite). */
    virtual TraceRecord next() = 0;
    /** Region footprint in bytes. */
    virtual std::uint64_t footprintBytes() const = 0;
};

/** Deterministic generator of TraceRecords. */
class SyntheticTrace final : public TraceSource
{
  public:
    explicit SyntheticTrace(const WorkloadParams &params);

    /** Next record (never ends). */
    TraceRecord next() override;

    const WorkloadParams &params() const { return params_; }

    /** Region footprint in bytes (for placing cores side by side). */
    std::uint64_t
    footprintBytes() const override
    {
        return params_.workingSetPages *
               static_cast<std::uint64_t>(4096);
    }

  private:
    WorkloadParams params_;
    DataPatternModel pattern_;
    Rng rng_;
    std::vector<std::uint64_t> streamCursor_; //!< line index per stream
    std::vector<std::uint64_t> streamLeft_;   //!< lines before re-seed
    std::vector<unsigned> streamDwell_;       //!< accesses left on line
    std::vector<bool> streamWriting_;         //!< line receives stores

    std::uint64_t linesInSet() const;
    Addr pickAddress(bool &dependent, bool &isWrite);
};

} // namespace ladder

#endif // LADDER_TRACE_SYNTH_HH
