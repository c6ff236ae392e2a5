#include "trace_sink.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string_view>

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

struct ChunkIndexEntry
{
    std::uint64_t offset = 0; //!< file offset of the chunk magic
    std::uint32_t records = 0;
    std::uint32_t crc = 0;
};

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
 * The one serializer behind both modes: the header on construction,
 * one chunk per append() (a CSV chunk is just its rows), and the
 * v2/v3 footer and trailer in finish(). It tracks the byte offset and
 * the chunk index the footer needs.
 */
struct WriteTraceSink::ChunkWriter
{
    ChunkWriter(std::ostream &out, TraceFormat fmt,
                std::size_t chunkRecords, bool attr)
        : os(out), format(fmt), attribution(attr)
    {
        if (format == TraceFormat::Csv) {
            put(attribution ? traceCsvHeaderAttr : traceCsvHeader);
            return;
        }
        std::string header(traceFileMagic, sizeof(traceFileMagic));
        appendU32(header,
                  attribution ? traceAttrVersion : traceBaseVersion);
        appendU32(header, static_cast<std::uint32_t>(chunkRecords));
        put(header);
    }

    void
    append(const CtrlTraceRecord *records, std::size_t count)
    {
        written += count;
        std::string payload;
        if (format == TraceFormat::Csv) {
            for (std::size_t i = 0; i < count; ++i)
                appendCsvRow(payload, records[i], attribution);
            put(payload);
            return;
        }
        payload.reserve(count * (attribution ? traceAttrRecordBytes
                                             : traceRecordBytes));
        for (std::size_t i = 0; i < count; ++i)
            appendRecord(payload, records[i], attribution);
        ChunkIndexEntry entry;
        entry.offset = offset;
        entry.records = static_cast<std::uint32_t>(count);
        entry.crc = crc32(payload.data(), payload.size());
        index.push_back(entry);
        std::string header(traceChunkMagic, sizeof(traceChunkMagic));
        appendU32(header, entry.records);
        appendU32(header, entry.crc);
        put(header);
        put(payload);
    }

    void
    finish()
    {
        if (format == TraceFormat::Csv)
            return;
        std::string footer(traceFooterMagic, sizeof(traceFooterMagic));
        appendU32(footer, static_cast<std::uint32_t>(index.size()));
        appendU64(footer, written);
        for (const ChunkIndexEntry &entry : index) {
            appendU64(footer, entry.offset);
            appendU32(footer, entry.records);
            appendU32(footer, entry.crc);
        }
        appendU32(footer, crc32(footer.data(), footer.size()));
        appendU64(footer, offset); // the footer starts here
        footer.append(traceEndMagic, sizeof(traceEndMagic));
        put(footer);
    }

    void
    put(std::string_view bytes)
    {
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
        offset += bytes.size();
    }

    std::ostream &os;
    const TraceFormat format;
    const bool attribution;
    std::uint64_t offset = 0;  //!< bytes written so far
    std::uint64_t written = 0; //!< records written so far
    std::vector<ChunkIndexEntry> index;
};

WriteTraceSink::WriteTraceSink() = default;

WriteTraceSink::WriteTraceSink(const std::string &path,
                               TraceFormat format,
                               std::size_t chunkRecords,
                               bool attribution)
    : path_(path), format_(format), chunkRecords_(chunkRecords),
      attribution_(attribution)
{
    ladder_assert(chunkRecords_ > 0, "streaming trace: zero chunk size");
    records_.reserve(chunkRecords_);
    openFile();
}

WriteTraceSink::~WriteTraceSink()
{
    // A write error here panics out of a destructor, which terminates
    // the program; callers that want to handle it call finish() first.
    finish();
}

void
WriteTraceSink::openFile()
{
    writer_.reset();
    file_.close();
    file_.open(path_, std::ios::binary | std::ios::trunc);
    ladder_assert(file_.good(), "cannot open trace file %s",
                  path_.c_str());
    writer_ = std::make_unique<ChunkWriter>(file_, format_,
                                            chunkRecords_, attribution_);
}

void
WriteTraceSink::flushChunk()
{
    PROF_SCOPE("trace_flush");
    if (metrics::enabled())
        metrics::add(traceChunksMetric());
    writer_->append(records_.data(), records_.size());
    records_.clear();
    // A failed sink counts as finished, so the destructor does not
    // panic a second time while the first one unwinds.
    if (!file_.good())
        writer_.reset();
    ladder_assert(writer_, "write error on trace file %s",
                  path_.c_str());
}

void
WriteTraceSink::record(const CtrlTraceRecord &r)
{
    ladder_assert(!streaming() || writer_, "record() after finish()");
    records_.push_back(r);
    ++total_;
    peakBuffered_ = std::max(peakBuffered_, records_.size());
    if (streaming() && records_.size() >= chunkRecords_)
        flushChunk();
}

void
WriteTraceSink::clear()
{
    records_.clear();
    total_ = 0;
    // Restart the file from scratch, so the ramp records a run
    // discards never reach the final trace.
    if (streaming())
        openFile();
}

void
WriteTraceSink::finish()
{
    if (!writer_)
        return;
    if (!records_.empty())
        flushChunk();
    records_ = {};
    writer_->finish();
    writer_.reset();
    file_.close();
    ladder_assert(!file_.fail(), "write error on trace file %s",
                  path_.c_str());
}

const std::vector<CtrlTraceRecord> &
WriteTraceSink::records() const
{
    ladder_assert(!streaming(),
                  "records() is buffered-mode only (streaming traces "
                  "live on disk; use TraceReader)");
    return records_;
}

void
WriteTraceSink::setAttribution(bool attribution)
{
    ladder_assert(!streaming(),
                  "setAttribution() is buffered-mode only (streaming "
                  "sinks fix the format at construction)");
    attribution_ = attribution;
}

void
WriteTraceSink::serialize(std::ostream &os, TraceFormat format,
                          std::size_t chunkRecords) const
{
    ladder_assert(!streaming(), "serializing a trace is buffered-mode "
                                "only (streaming sinks write as they go)");
    ladder_assert(chunkRecords > 0, "trace serialization: zero chunk "
                                    "size");
    PROF_SCOPE("trace_flush");
    ChunkWriter writer(os, format, chunkRecords, attribution_);
    for (std::size_t start = 0; start < records_.size();
         start += chunkRecords)
        writer.append(records_.data() + start,
                      std::min(chunkRecords, records_.size() - start));
    writer.finish();
}

void
WriteTraceSink::writeCsv(std::ostream &os) const
{
    serialize(os, TraceFormat::Csv, traceDefaultChunkRecords);
}

void
WriteTraceSink::writeBinaryV2(std::ostream &os,
                              std::size_t chunkRecords) const
{
    serialize(os, TraceFormat::BinaryV2, chunkRecords);
}

} // namespace ladder
