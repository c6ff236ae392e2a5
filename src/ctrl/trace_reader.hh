/**
 * @file
 * Robust reader for every trace encoding the sink can emit: CSV and
 * the v2 chunked binary (see trace_sink.hh for the wire formats). Designed for consumption by
 * external tools (trace_cat, analysis scripts, tests), so malformed
 * input is *never* undefined behaviour or a crash: every validation
 * failure — bad magic, unsupported version, truncated header,
 * mid-record EOF, CRC mismatch, inconsistent chunk index, malformed
 * CSV row — turns into `ok() == false` with a human-readable error()
 * and next() returning false.
 *
 * Sequential iteration works on all formats; the v2 chunk index
 * additionally supports O(1) seeking to any chunk. Memory use is
 * bounded by one chunk (v2) or one record (CSV), so arbitrarily
 * long traces can be scanned.
 */

#ifndef LADDER_CTRL_TRACE_READER_HH
#define LADDER_CTRL_TRACE_READER_HH

#include <cstdint>
#include <istream>
#include <memory>
#include <string>
#include <vector>

#include "ctrl/trace_sink.hh"

namespace ladder
{

/** Streaming parser over one trace file or in-memory buffer. */
class TraceReader
{
  public:
    TraceReader() = default;

    /**
     * Open a trace file, auto-detecting the encoding, and validate
     * its framing (v2: trailer, footer CRC, chunk index
     * consistency). Returns false with error() set on any
     * problem.
     */
    bool open(const std::string &path);

    /** Same as open(), over an in-memory copy of the bytes. */
    bool openBuffer(std::string bytes);

    /** True while no validation failure has occurred. */
    bool ok() const { return error_.empty(); }

    /** Description of the first failure (empty while ok()). */
    const std::string &error() const { return error_; }

    TraceFormat format() const { return format_; }

    /** Binary container version (2 or 3; 0 for CSV). */
    std::uint32_t version() const { return version_; }

    /**
     * Whether records carry the blame block (binary v3 or the
     * attribution CSV header); attr fields read as zero otherwise.
     */
    bool attribution() const { return attribution_; }

    /**
     * Total record count when the container declares it (the v2
     * footer); false for CSV, where the count is only known once
     * iteration completes.
     */
    bool knownTotal() const { return format_ != TraceFormat::Csv; }
    std::uint64_t totalRecords() const { return totalRecords_; }

    /**
     * Restrict iteration to records with minTick <= tick <= maxTick.
     * On the v2 format this is pushed down to the chunk index:
     * records are appended in simulation-time order, so a chunk's
     * tick range is [first record tick, last record tick], peekable
     * from 16 bytes without decoding — chunks entirely outside the
     * window are skipped whole, never CRC-checked or decoded (see
     * chunksDecoded()). Boundary chunks can still deliver records
     * just outside the window, so callers wanting an exact cut must
     * keep their per-record filter; CSV has no index and is
     * filtered by the caller alone. Call before iterating.
     */
    void setTickWindow(std::uint64_t minTick, std::uint64_t maxTick);

    /** Chunks CRC-checked + decoded so far (v2; skipping counter). */
    std::uint64_t chunksDecoded() const { return chunksDecoded_; }

    /**
     * Read the next record into @p out. Returns false at clean end of
     * trace *or* on error — check ok() to tell the two apart.
     */
    bool next(CtrlTraceRecord &out);

    /** Records delivered by next() so far. */
    std::uint64_t recordsRead() const { return recordsRead_; }

    // --- v2 chunk index access (chunkCount() == 0 for CSV) ---

    std::size_t chunkCount() const { return chunks_.size(); }

    /** Record count of chunk @p index. */
    std::uint32_t chunkRecords(std::size_t index) const
    {
        return chunks_.at(index).records;
    }

    /** Index of the first record in chunk @p index. */
    std::uint64_t chunkFirstRecord(std::size_t index) const
    {
        return chunks_.at(index).firstRecord;
    }

    /**
     * Position iteration at the first record of chunk @p index
     * (v2 only). Returns false with error() set when out of range or
     * the chunk fails validation.
     */
    bool seekChunk(std::size_t index);

  private:
    struct ChunkEntry
    {
        std::uint64_t offset = 0;
        std::uint32_t records = 0;
        std::uint32_t crc = 0;
        std::uint64_t firstRecord = 0;
    };

    bool fail(const std::string &msg);
    bool readExact(char *buf, std::size_t len, const char *what);
    bool parseHeader();
    bool parseV2();
    bool loadChunk(std::size_t index);
    bool nextCsv(CtrlTraceRecord &out);
    /** Peek chunk @p index's first/last record ticks (no decode). */
    bool peekChunkTicks(std::size_t index, std::uint64_t &first,
                        std::uint64_t &last);

    std::unique_ptr<std::istream> is_;
    std::string error_;
    TraceFormat format_ = TraceFormat::Csv;
    std::uint32_t version_ = 0;
    std::uint64_t totalRecords_ = 0;
    std::uint64_t recordsRead_ = 0;
    std::uint64_t fileSize_ = 0;
    std::uint32_t chunkCapacity_ = 0;
    bool attribution_ = false;
    /** Serialized record size for the detected binary version. */
    std::size_t recordBytes_ = traceRecordBytes;
    std::vector<ChunkEntry> chunks_;
    // Decoded records of the currently loaded v2 chunk.
    std::vector<CtrlTraceRecord> chunkBuf_;
    std::size_t chunkIndex_ = 0; //!< next chunk to load
    std::size_t chunkPos_ = 0;   //!< next record within chunkBuf_
    bool csvDone_ = false;
    bool tickWindowSet_ = false;
    std::uint64_t minTick_ = 0;
    std::uint64_t maxTick_ = ~std::uint64_t{0};
    std::uint64_t chunksDecoded_ = 0;
};

/** Aggregate statistics over a whole trace (see summarizeTrace). */
struct TraceSummary
{
    std::uint64_t records = 0;
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    std::uint64_t firstTick = 0;
    std::uint64_t lastTick = 0;
    double writeLatencySumNs = 0.0;
    double readLatencySumNs = 0.0;
    float maxWriteLatencyNs = 0.0f;
    float maxReadLatencyNs = 0.0f;
    std::uint32_t maxQueueDepth = 0;
    std::uint16_t maxLrsCount = 0;
    std::vector<std::uint64_t> perChannel; //!< records per channel
};

/**
 * Drain @p reader from its current position, accumulating a summary.
 * Check reader.ok() afterwards — a summary of a corrupt trace covers
 * only the records before the failure.
 */
TraceSummary summarizeTrace(TraceReader &reader);

} // namespace ladder

#endif // LADDER_CTRL_TRACE_READER_HH
