/**
 * @file
 * Cycle-level event trace sink for the memory controller. Each data
 * write dispatch and each completed demand read appends one fixed
 * record. Two operating modes:
 *
 *  - Buffered (default): records accumulate in memory and are
 *    serialized once at the end of a run — CSV (self-describing,
 *    plottable) or the v2 chunked binary.
 *  - Streaming: constructed with an output path, the sink fills one
 *    fixed-size chunk and writes it to the file, on the thread that
 *    calls record(), each time it is full, so peak trace memory is
 *    one chunk however long the run is. Streaming emits CSV or the
 *    v2 chunked binary through the same chunk writer as the buffered
 *    serializers, so its bytes are identical to the buffered
 *    serialization of the same record sequence.
 *
 * Records are appended from the (single-threaded) event loop of one
 * System, in event order, so a trace is deterministic for a given run
 * regardless of sweep parallelism — each run owns its own sink.
 *
 * v2 chunked wire format (all integers little-endian; full field
 * tables in EXPERIMENTS.md):
 *
 *   file header   "LADDRTRC" u32 version=2, u32 chunkCapacity
 *   chunk*        "CHNK" u32 recordCount, u32 payloadCrc32,
 *                 recordCount x 24-byte records
 *   footer        "FTER" u32 chunkCount, u64 totalRecords,
 *                 chunkCount x { u64 offset, u32 count, u32 crc32 },
 *                 u32 footerCrc32
 *   trailer       u64 footerOffset, "LADDREND"
 *
 * Every chunk except the last holds exactly chunkCapacity records;
 * chunk payloads and the footer are CRC-32 protected, and the trailer
 * lets readers seek straight to the index.
 */

#ifndef LADDER_CTRL_TRACE_SINK_HH
#define LADDER_CTRL_TRACE_SINK_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hh"

namespace ladder
{

/**
 * Causal blame decomposition of one write's end-to-end latency,
 * carried per record when attribution is on (v3 binary / attribution
 * CSV). Every field is a signed tick (picosecond) count; the
 * controller guarantees the eight components sum exactly to
 * completionTick - enqueueTick of the write. Reads carry all zeros.
 */
struct WriteAttribution
{
    std::int32_t depTicks = 0;      //!< retry/spill/dependency stall
    std::int32_t queueTicks = 0;    //!< ready but queued, bank free
    std::int32_t bankTicks = 0;     //!< ready but bank busy
    std::int32_t rcdTicks = 0;      //!< activation (tRCD)
    std::int32_t baseTicks = 0;     //!< scheme best-case tWR floor
    std::int32_t locationTicks = 0; //!< WL/BL region penalty
    std::int32_t contentTicks = 0;  //!< LRS-count penalty
    std::int32_t schemeTicks = 0;   //!< scheme mechanics (phases etc.)
};

/** One traced controller event (fixed 24-byte wire format). */
struct CtrlTraceRecord
{
    enum class Kind : std::uint8_t { Write = 0, Read = 1 };

    std::uint64_t tick = 0;      //!< dispatch (write) / completion (read)
    Kind kind = Kind::Write;
    std::uint8_t channel = 0;
    std::uint16_t wordline = 0;  //!< selected row within the mats
    std::uint16_t bitline = 0;   //!< worst (farthest) selected bitline
    std::uint16_t lrsCount = 0;  //!< wordline LRS ('1') count (writes)
    float latencyNs = 0.0f;      //!< chosen tWR (write) / total (read)
    std::uint32_t queueDepth = 0; //!< same-class queue depth at event
    WriteAttribution attr{};     //!< serialized in v3 / attr CSV only
};

/** Serialized size of one record in v2 binary traces. */
inline constexpr std::size_t traceRecordBytes = 24;

/**
 * Serialized record size in the v3 (attribution) binary: the 24 base
 * bytes followed by the eight blame components as little-endian
 * signed 32-bit tick counts, in WriteAttribution declaration order.
 */
inline constexpr std::size_t traceAttrRecordBytes = 56;

/** On-disk trace encodings ("csv", "bin2" on command lines). */
enum class TraceFormat { Csv, BinaryV2 };

/** Parse a trace-format= value; fatal() on an unknown name. */
TraceFormat traceFormatFromName(const std::string &name);

/** File name extension for a format ("csv" or "bin"). */
std::string traceFormatExtension(TraceFormat format);

/** Records per chunk unless a caller picks another size. */
inline constexpr std::size_t traceDefaultChunkRecords = 64 * 1024;

/** Trace buffer with buffered and streaming operation (see @file). */
class WriteTraceSink
{
  public:
    /** Buffered mode: keep everything in memory until serialized. */
    WriteTraceSink();

    /**
     * Streaming mode: open @p path (truncating) and write each chunk
     * of @p chunkRecords records to it as soon as it fills. Call
     * finish() (or let the destructor) to write the final partial
     * chunk and the v2 footer.
     */
    WriteTraceSink(const std::string &path, TraceFormat format,
                   std::size_t chunkRecords = traceDefaultChunkRecords,
                   bool attribution = false);

    ~WriteTraceSink();

    WriteTraceSink(const WriteTraceSink &) = delete;
    WriteTraceSink &operator=(const WriteTraceSink &) = delete;

    void record(const CtrlTraceRecord &r);

    /** Records accepted since construction or the last clear(). */
    std::size_t size() const { return total_; }

    /**
     * Drop everything recorded so far. In streaming mode the output
     * file is truncated and restarted, so the ramp records a run
     * discards never reach the final trace.
     */
    void clear();

    bool streaming() const { return !path_.empty(); }

    /**
     * Whether serializations carry the per-record blame block (CSV
     * attribution columns / binary v3). Streaming sinks fix this at
     * construction (the header is written up front); buffered sinks
     * may toggle it any time before serialization.
     */
    bool attribution() const { return attribution_; }

    /** Buffered mode only: select attribution serialization. */
    void setAttribution(bool attribution);

    /** Streaming output path (empty in buffered mode). */
    const std::string &path() const { return path_; }

    /**
     * Streaming mode: write the final partial chunk and the v2
     * footer, and close the file. Idempotent; record() must not be
     * called afterwards. Buffered mode: no-op.
     */
    void finish();

    /**
     * High-water mark of records resident in this sink at any instant
     * (buffered mode: the full buffer; streaming mode: the fill
     * chunk). The bounded-memory guarantee is `peak <= chunkRecords`
     * in streaming mode, which tests assert.
     */
    std::size_t peakBufferedRecords() const
    {
        return peakBuffered_;
    }

    /** Buffered-mode record access (asserts in streaming mode). */
    const std::vector<CtrlTraceRecord> &records() const;

    /** Write `type,tick,channel,wordline,bitline,...` CSV rows. */
    void writeCsv(std::ostream &os) const;

    /**
     * Write the v2 chunked binary with @p chunkRecords records per
     * chunk — byte-identical to what a streaming sink with the same
     * chunk size would emit for the same record sequence.
     */
    void writeBinaryV2(std::ostream &os,
                       std::size_t chunkRecords) const;

  private:
    struct ChunkWriter;

    void openFile();
    void flushChunk();
    void serialize(std::ostream &os, TraceFormat format,
                   std::size_t chunkRecords) const;

    std::string path_;          //!< streaming only
    TraceFormat format_ = TraceFormat::Csv;
    std::size_t chunkRecords_ = traceDefaultChunkRecords;
    bool attribution_ = false;
    std::ofstream file_;                  //!< streaming only
    std::unique_ptr<ChunkWriter> writer_; //!< streaming, until finish()

    std::vector<CtrlTraceRecord> records_; //!< buffer / fill chunk
    std::size_t total_ = 0;
    std::size_t peakBuffered_ = 0;
};

} // namespace ladder

#endif // LADDER_CTRL_TRACE_SINK_HH
