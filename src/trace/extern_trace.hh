/**
 * @file
 * External trace ingestion: replay memory traces that were *not*
 * produced by this simulator's TraceSource machinery as first-class
 * workloads. Two encodings are accepted, told apart by the bin2
 * "LADDRTRC" magic (anything else is parsed as text):
 *
 *  - DRAMsim3-style text: one `<hexaddr> <READ|WRITE|R|W> <cycle>`
 *    request per line, '#' comments and blank lines ignored. The
 *    de-facto interchange format of memory-system simulators.
 *  - This repo's own bin2 controller traces (trace-out trace-format=
 *    bin2), parsed through the hardened ctrl/TraceReader so every
 *    corruption mode it rejects is rejected here too.
 *
 * Neither format carries store payloads, so write content is
 * synthesized deterministically: DRAMsim3 records draw typed words
 * from a data-pattern model seeded by the workload seed; bin2 records
 * reconstruct words whose popcount matches the recorded per-write LRS
 * count, preserving the original run's content-latency profile.
 *
 * Parsing is strict and total: any malformed input — bad token, bad
 * radix, missing column, truncated or bit-flipped binary — yields
 * ok() == false with a line/offset-qualified error(), never undefined
 * behaviour (fuzzed in tests/test_trace_frontend under ASan/UBSan).
 *
 * Addresses are remapped into the configured geometry by folding line
 * indices into the workload's footprint (`lineIdx % footprintLines`),
 * preserving spatial locality and stride structure while guaranteeing
 * every replayed access stays inside the region the System assigns.
 */

#ifndef LADDER_TRACE_EXTERN_TRACE_HH
#define LADDER_TRACE_EXTERN_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/synth.hh"

namespace ladder
{

/** Supported external encodings. */
enum class ExternTraceFormat { Dramsim3, Bin2 };

std::string externTraceFormatName(ExternTraceFormat format);

/** One parsed external request, normalized across formats. */
struct ExternRecord
{
    std::uint64_t addr = 0;  //!< byte address as given by the trace
    bool isWrite = false;
    std::uint64_t cycle = 0; //!< issue cycle/tick from the trace
    /** Recorded LRS count (bin2 only; 0xffff = not available). */
    std::uint16_t lrsCount = 0xffff;
};

/** Outcome of parsing one external trace (file or buffer). */
struct ExternParseResult
{
    std::vector<ExternRecord> records;
    ExternTraceFormat format = ExternTraceFormat::Dramsim3;
    std::uint32_t crc32 = 0; //!< CRC-32 of the raw input bytes
    std::string error;       //!< empty = success

    bool ok() const { return error.empty(); }
};

/**
 * Parse @p bytes as an external trace: bin2 when they start with its
 * "LADDRTRC" magic, DRAMsim3 text otherwise. Never throws; malformed
 * input fills `error`.
 */
ExternParseResult parseExternTrace(const std::string &bytes);

/**
 * Load and parse @p path. Results are memoized per path under a mutex
 * so a sweep building hundreds of Systems pays the parse once; the
 * cache never invalidates within a process.
 */
std::shared_ptr<const ExternParseResult>
loadExternTrace(const std::string &path);

/** Content-synthesis policy for payload-less trace formats. */
enum class ExternContentMode
{
    /** Words whose popcount tracks the record's LRS count when the
     * trace records one, else Pattern. */
    Auto,
    Pattern, //!< typed words from the data-pattern model
};

ExternContentMode externContentModeFromName(const std::string &name);

/** Knobs of the external-trace workload (registry: extern.*). */
struct ExternTraceOptions
{
    /** Replay footprint in 4KB pages (addresses fold into it). */
    std::uint64_t footprintPages = 1024;
    ExternContentMode content = ExternContentMode::Auto;
};

/**
 * Replays parsed external records behind the TraceSource interface,
 * looping forever. Address remapping, inter-request gaps and write
 * content are all deterministic functions of (records, options,
 * seed) — byte-identical replay at any sweep parallelism.
 */
class ExternalTraceSource : public TraceSource
{
  public:
    ExternalTraceSource(std::shared_ptr<const ExternParseResult> trace,
                        const ExternTraceOptions &options,
                        std::uint64_t seed);

    TraceRecord next() override;
    std::uint64_t footprintBytes() const override;

    std::uint64_t records() const;
    std::uint64_t loops() const { return loops_; }

  private:
    std::shared_ptr<const ExternParseResult> trace_;
    ExternTraceOptions options_;
    DataPatternModel pattern_;
    Rng rng_;
    std::size_t cursor_ = 0;
    std::uint64_t loops_ = 0;
    std::uint64_t lastCycle_ = 0;

    std::array<std::uint8_t, 8> synthesizeWord(const ExternRecord &r);
};

} // namespace ladder

#endif // LADDER_TRACE_EXTERN_TRACE_HH
