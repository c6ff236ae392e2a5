#include "trace_sink.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#endif

#include "common/bounded_queue.hh"
#include "common/crc32.hh"
#include "common/log.hh"
#include "common/metrics.hh"
#include "common/profiler.hh"
#include "ctrl/trace_wire.hh"

namespace ladder
{

namespace
{

metrics::MetricId
traceChunksMetric()
{
    static const metrics::MetricId id =
        metrics::registerCounter("trace.chunks_flushed");
    return id;
}

metrics::MetricId
traceStallsMetric()
{
    static const metrics::MetricId id =
        metrics::registerCounter("trace.backpressure_stalls");
    return id;
}

void
appendU16(std::string &out, std::uint16_t v)
{
    out.push_back(static_cast<char>(v & 0xFF));
    out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void
appendU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void
appendU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

/**
 * Append one record in the fixed little-endian layout: the 24 base
 * bytes, plus the 32-byte blame block when @p attribution is set
 * (signed components stored as two's-complement u32).
 */
void
appendRecord(std::string &out, const CtrlTraceRecord &r,
             bool attribution)
{
    appendU64(out, r.tick);
    out.push_back(static_cast<char>(r.kind));
    out.push_back(static_cast<char>(r.channel));
    appendU16(out, r.wordline);
    appendU16(out, r.bitline);
    appendU16(out, r.lrsCount);
    std::uint32_t latencyBits;
    static_assert(sizeof(latencyBits) == sizeof(r.latencyNs));
    std::memcpy(&latencyBits, &r.latencyNs, sizeof(latencyBits));
    appendU32(out, latencyBits);
    appendU32(out, r.queueDepth);
    if (attribution) {
        const std::int32_t components[8] = {
            r.attr.depTicks,  r.attr.queueTicks,
            r.attr.bankTicks, r.attr.rcdTicks,
            r.attr.baseTicks, r.attr.locationTicks,
            r.attr.contentTicks, r.attr.schemeTicks};
        for (std::int32_t c : components)
            appendU32(out, static_cast<std::uint32_t>(c));
    }
}

void
appendCsvRow(std::string &out, const CtrlTraceRecord &r,
             bool attribution)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%c,%llu,%u,%u,%u,%u,%.3f,%u",
                  r.kind == CtrlTraceRecord::Kind::Write ? 'W' : 'R',
                  static_cast<unsigned long long>(r.tick), r.channel,
                  r.wordline, r.bitline, r.lrsCount,
                  static_cast<double>(r.latencyNs), r.queueDepth);
    out += buf;
    if (attribution) {
        std::snprintf(buf, sizeof(buf), ",%d,%d,%d,%d,%d,%d,%d,%d",
                      r.attr.depTicks, r.attr.queueTicks,
                      r.attr.bankTicks, r.attr.rcdTicks,
                      r.attr.baseTicks, r.attr.locationTicks,
                      r.attr.contentTicks, r.attr.schemeTicks);
        out += buf;
    }
    out += '\n';
}

/** v2/v3 file header: magic, version, chunk capacity. */
std::string
serializeV2Header(std::size_t chunkRecords, bool attribution)
{
    std::string out(traceFileMagic, sizeof(traceFileMagic));
    appendU32(out, attribution ? traceAttrVersion : traceBaseVersion);
    appendU32(out, static_cast<std::uint32_t>(chunkRecords));
    return out;
}

struct ChunkIndexEntry
{
    std::uint64_t offset = 0; //!< file offset of the chunk magic
    std::uint32_t records = 0;
    std::uint32_t crc = 0;
};

/** One v2/v3 chunk: magic, count, payload CRC-32, packed records. */
std::string
serializeV2Chunk(const CtrlTraceRecord *records, std::size_t count,
                 std::uint32_t *crcOut, bool attribution)
{
    std::string payload;
    payload.reserve(count * (attribution ? traceAttrRecordBytes
                                         : traceRecordBytes));
    for (std::size_t i = 0; i < count; ++i)
        appendRecord(payload, records[i], attribution);
    std::uint32_t crc = crc32(payload.data(), payload.size());
    if (crcOut)
        *crcOut = crc;
    std::string out(traceChunkMagic, sizeof(traceChunkMagic));
    appendU32(out, static_cast<std::uint32_t>(count));
    appendU32(out, crc);
    out += payload;
    return out;
}

/** v2 footer + trailer for the given chunk index. */
std::string
serializeV2Footer(const std::vector<ChunkIndexEntry> &index,
                  std::uint64_t totalRecords,
                  std::uint64_t footerOffset)
{
    std::string footer(traceFooterMagic, sizeof(traceFooterMagic));
    appendU32(footer, static_cast<std::uint32_t>(index.size()));
    appendU64(footer, totalRecords);
    for (const ChunkIndexEntry &entry : index) {
        appendU64(footer, entry.offset);
        appendU32(footer, entry.records);
        appendU32(footer, entry.crc);
    }
    appendU32(footer, crc32(footer.data(), footer.size()));
    appendU64(footer, footerOffset);
    footer.append(traceEndMagic, sizeof(traceEndMagic));
    return footer;
}

} // namespace

TraceFormat
traceFormatFromName(const std::string &name)
{
    if (name == "csv")
        return TraceFormat::Csv;
    if (name == "bin2")
        return TraceFormat::BinaryV2;
    fatal("trace-format must be 'csv' or 'bin2', got '%s'",
          name.c_str());
}

std::string
traceFormatExtension(TraceFormat format)
{
    return format == TraceFormat::Csv ? "csv" : "bin";
}

/**
 * Streaming state: the output stream, the writer thread, and the
 * bounded chunk queue between them. The simulation thread owns the
 * fill chunk; the writer thread owns the ofstream and the chunk index
 * while running (the index is read by the finisher only after join).
 */
struct WriteTraceSink::Stream
{
    explicit Stream(std::size_t maxQueuedChunks)
        : queue(maxQueuedChunks)
    {
    }

    std::ofstream os;
    BoundedQueue<std::vector<CtrlTraceRecord>> queue;
    std::thread writer;
    std::atomic<std::size_t> inFlight{0}; //!< queued, unwritten records
    std::atomic<bool> failed{false};
    std::uint64_t offset = 0; //!< bytes written so far
    std::uint64_t written = 0; //!< records written so far
    std::vector<ChunkIndexEntry> index;
    bool finished = false;
};

WriteTraceSink::WriteTraceSink() = default;

WriteTraceSink::WriteTraceSink(const std::string &path,
                               TraceFormat format,
                               const TraceStreamOptions &options,
                               bool attribution)
    : path_(path), format_(format), options_(options),
      attribution_(attribution)
{
    ladder_assert(options_.chunkRecords > 0,
                  "streaming trace: zero chunk size");
    ladder_assert(options_.maxQueuedChunks > 0,
                  "streaming trace: zero queue capacity");
    records_.reserve(options_.chunkRecords);
    startStream();
}

WriteTraceSink::~WriteTraceSink()
{
    if (stream_ && !stream_->finished) {
        // Flush on destruction; IO failures still panic via the
        // ladder_assert in finish(), which is fine — panic aborts.
        finish();
    }
}

void
WriteTraceSink::startStream()
{
    auto stream = std::make_unique<Stream>(options_.maxQueuedChunks);
    stream->os.open(path_, std::ios::binary | std::ios::trunc);
    ladder_assert(stream->os.good(), "cannot open trace file %s",
                  path_.c_str());
    std::string header =
        format_ == TraceFormat::BinaryV2
            ? serializeV2Header(options_.chunkRecords, attribution_)
            : std::string(attribution_ ? traceCsvHeaderAttr
                                       : traceCsvHeader);
    stream->os.write(header.data(),
                     static_cast<std::streamsize>(header.size()));
    stream->offset = header.size();
    Stream *raw = stream.get();
    TraceFormat format = format_;
    bool attribution = attribution_;
    stream->writer = std::thread([raw, format, attribution]() {
#if defined(__linux__)
        pthread_setname_np(pthread_self(), "ladder-trace");
#endif
        prof::setCurrentThreadName("ladder-trace");
        while (auto chunk = raw->queue.pop()) {
            if (!raw->failed.load(std::memory_order_relaxed)) {
                PROF_SCOPE("trace_flush");
                if (metrics::enabled())
                    metrics::add(traceChunksMetric());
                std::string bytes;
                if (format == TraceFormat::BinaryV2) {
                    ChunkIndexEntry entry;
                    entry.offset = raw->offset;
                    entry.records =
                        static_cast<std::uint32_t>(chunk->size());
                    bytes = serializeV2Chunk(chunk->data(),
                                             chunk->size(), &entry.crc,
                                             attribution);
                    raw->index.push_back(entry);
                } else {
                    for (const CtrlTraceRecord &r : *chunk)
                        appendCsvRow(bytes, r, attribution);
                }
                raw->os.write(
                    bytes.data(),
                    static_cast<std::streamsize>(bytes.size()));
                raw->offset += bytes.size();
                raw->written += chunk->size();
                if (!raw->os.good())
                    raw->failed.store(true,
                                      std::memory_order_relaxed);
            }
            // On failure keep draining so the producer never blocks
            // on a queue nobody is emptying.
            raw->inFlight.fetch_sub(chunk->size(),
                                    std::memory_order_relaxed);
        }
    });
    stream_ = std::move(stream);
}

void
WriteTraceSink::pushChunk(std::vector<CtrlTraceRecord> &&chunk)
{
    if (chunk.empty())
        return;
    stream_->inFlight.fetch_add(chunk.size(),
                                std::memory_order_relaxed);
    // Blocks while the queue is full: backpressure instead of
    // unbounded buffering when the disk cannot keep up. The size
    // probe is racy, which is fine for a stall tally.
    if (metrics::enabled() &&
        stream_->queue.size() >= stream_->queue.capacity())
        metrics::add(traceStallsMetric());
    bool pushed = stream_->queue.push(std::move(chunk));
    ladder_assert(pushed, "trace chunk pushed after finish()");
}

void
WriteTraceSink::stopStream(bool writeFooter)
{
    Stream &stream = *stream_;
    stream.queue.close();
    if (stream.writer.joinable())
        stream.writer.join();
    if (writeFooter && format_ == TraceFormat::BinaryV2) {
        std::string footer = serializeV2Footer(
            stream.index, stream.written, stream.offset);
        stream.os.write(footer.data(),
                        static_cast<std::streamsize>(footer.size()));
    }
    if (writeFooter) {
        stream.os.flush();
        if (!stream.os.good())
            stream.failed.store(true, std::memory_order_relaxed);
    }
    stream.os.close();
    stream.finished = true;
    ladder_assert(!stream.failed.load(), "write error on trace file %s",
                  path_.c_str());
}

void
WriteTraceSink::record(const CtrlTraceRecord &r)
{
    if (!stream_) {
        records_.push_back(r);
        ++total_;
        peakBuffered_ = std::max(peakBuffered_, records_.size());
        return;
    }
    ladder_assert(!stream_->finished, "record() after finish()");
    records_.push_back(r);
    ++total_;
    std::size_t resident =
        records_.size() +
        stream_->inFlight.load(std::memory_order_relaxed);
    peakBuffered_ = std::max(peakBuffered_, resident);
    if (records_.size() >= options_.chunkRecords) {
        std::vector<CtrlTraceRecord> chunk;
        chunk.reserve(options_.chunkRecords);
        chunk.swap(records_);
        pushChunk(std::move(chunk));
    }
}

void
WriteTraceSink::clear()
{
    if (stream_) {
        // Restart the file from scratch: drop the fill chunk, retire
        // the writer (discarded bytes included), truncate, re-open.
        records_.clear();
        stopStream(/*writeFooter=*/false);
        stream_.reset();
        startStream();
    } else {
        records_.clear();
    }
    total_ = 0;
}

void
WriteTraceSink::finish()
{
    if (!stream_ || stream_->finished)
        return;
    pushChunk(std::move(records_));
    records_ = {};
    stopStream(/*writeFooter=*/true);
}

const std::vector<CtrlTraceRecord> &
WriteTraceSink::records() const
{
    ladder_assert(!stream_,
                  "records() is buffered-mode only (streaming traces "
                  "live on disk; use TraceReader)");
    return records_;
}

void
WriteTraceSink::setAttribution(bool attribution)
{
    ladder_assert(!stream_,
                  "setAttribution() is buffered-mode only (streaming "
                  "sinks fix the format at construction)");
    attribution_ = attribution;
}

void
WriteTraceSink::writeCsv(std::ostream &os) const
{
    ladder_assert(!stream_, "writeCsv() is buffered-mode only");
    PROF_SCOPE("trace_flush");
    if (attribution_)
        os.write(traceCsvHeaderAttr, sizeof(traceCsvHeaderAttr) - 1);
    else
        os.write(traceCsvHeader, sizeof(traceCsvHeader) - 1);
    std::string row;
    for (const CtrlTraceRecord &r : records_) {
        row.clear();
        appendCsvRow(row, r, attribution_);
        os.write(row.data(), static_cast<std::streamsize>(row.size()));
    }
}

void
WriteTraceSink::writeBinaryV2(std::ostream &os,
                              std::size_t chunkRecords) const
{
    ladder_assert(!stream_, "writeBinaryV2() is buffered-mode only");
    PROF_SCOPE("trace_flush");
    ladder_assert(chunkRecords > 0, "writeBinaryV2: zero chunk size");
    std::string header = serializeV2Header(chunkRecords, attribution_);
    os.write(header.data(),
             static_cast<std::streamsize>(header.size()));
    std::uint64_t offset = header.size();
    std::vector<ChunkIndexEntry> index;
    for (std::size_t start = 0; start < records_.size();
         start += chunkRecords) {
        std::size_t count =
            std::min(chunkRecords, records_.size() - start);
        ChunkIndexEntry entry;
        entry.offset = offset;
        entry.records = static_cast<std::uint32_t>(count);
        std::string chunk = serializeV2Chunk(records_.data() + start,
                                             count, &entry.crc,
                                             attribution_);
        os.write(chunk.data(),
                 static_cast<std::streamsize>(chunk.size()));
        offset += chunk.size();
        index.push_back(entry);
    }
    std::string footer =
        serializeV2Footer(index, records_.size(), offset);
    os.write(footer.data(),
             static_cast<std::streamsize>(footer.size()));
}

} // namespace ladder
