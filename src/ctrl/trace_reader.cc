#include "trace_reader.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/crc32.hh"
#include "common/log.hh"
#include "ctrl/trace_wire.hh"

namespace ladder
{

namespace
{

std::uint32_t
readU32(const char *buf)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | static_cast<unsigned char>(buf[i]);
    return v;
}

std::uint64_t
readU64(const char *buf)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | static_cast<unsigned char>(buf[i]);
    return v;
}

std::uint16_t
readU16(const char *buf)
{
    return static_cast<std::uint16_t>(
        static_cast<unsigned char>(buf[0]) |
        (static_cast<unsigned char>(buf[1]) << 8));
}

/**
 * Decode one record (24 base bytes, plus the 32-byte blame block when
 * @p attribution is set); false on an invalid kind byte.
 */
bool
decodeRecord(const char *buf, CtrlTraceRecord &out, bool attribution)
{
    out.tick = readU64(buf);
    unsigned char kind = static_cast<unsigned char>(buf[8]);
    if (kind > 1)
        return false;
    out.kind = static_cast<CtrlTraceRecord::Kind>(kind);
    out.channel = static_cast<unsigned char>(buf[9]);
    out.wordline = readU16(buf + 10);
    out.bitline = readU16(buf + 12);
    out.lrsCount = readU16(buf + 14);
    std::uint32_t latencyBits = readU32(buf + 16);
    static_assert(sizeof(latencyBits) == sizeof(out.latencyNs));
    std::memcpy(&out.latencyNs, &latencyBits, sizeof(out.latencyNs));
    out.queueDepth = readU32(buf + 20);
    out.attr = WriteAttribution{};
    if (attribution) {
        std::int32_t *components[8] = {
            &out.attr.depTicks,  &out.attr.queueTicks,
            &out.attr.bankTicks, &out.attr.rcdTicks,
            &out.attr.baseTicks, &out.attr.locationTicks,
            &out.attr.contentTicks, &out.attr.schemeTicks};
        for (int i = 0; i < 8; ++i)
            *components[i] = static_cast<std::int32_t>(
                readU32(buf + 24 + 4 * i));
    }
    return true;
}

} // namespace

bool
TraceReader::fail(const std::string &msg)
{
    if (error_.empty())
        error_ = msg;
    return false;
}

bool
TraceReader::readExact(char *buf, std::size_t len, const char *what)
{
    is_->read(buf, static_cast<std::streamsize>(len));
    if (static_cast<std::size_t>(is_->gcount()) != len)
        return fail(strPrintf("truncated trace: short read in %s",
                              what));
    return true;
}

bool
TraceReader::open(const std::string &path)
{
    auto file = std::make_unique<std::ifstream>(
        path, std::ios::binary);
    if (!file->is_open()) {
        is_.reset();
        return fail(
            strPrintf("cannot open trace file %s", path.c_str()));
    }
    file->seekg(0, std::ios::end);
    std::streamoff size = file->tellg();
    if (size < 0) {
        is_.reset();
        return fail(strPrintf("cannot size trace file %s",
                              path.c_str()));
    }
    file->seekg(0, std::ios::beg);
    is_ = std::move(file);
    fileSize_ = static_cast<std::uint64_t>(size);
    return parseHeader();
}

bool
TraceReader::openBuffer(std::string bytes)
{
    fileSize_ = bytes.size();
    is_ = std::make_unique<std::istringstream>(
        std::move(bytes), std::ios::binary);
    return parseHeader();
}

bool
TraceReader::parseHeader()
{
    error_.clear();
    totalRecords_ = 0;
    recordsRead_ = 0;
    chunkCapacity_ = 0;
    chunks_.clear();
    chunkBuf_.clear();
    chunkIndex_ = 0;
    chunkPos_ = 0;
    csvDone_ = false;
    tickWindowSet_ = false;
    minTick_ = 0;
    maxTick_ = ~std::uint64_t{0};
    chunksDecoded_ = 0;
    version_ = 0;
    format_ = TraceFormat::Csv;
    attribution_ = false;
    recordBytes_ = traceRecordBytes;

    if (fileSize_ == 0)
        return fail("empty trace file");

    char magic[sizeof(traceFileMagic)] = {};
    std::size_t probe = std::min<std::size_t>(fileSize_,
                                              sizeof(magic));
    if (!readExact(magic, probe, "magic probe"))
        return false;
    if (probe == sizeof(magic) &&
        std::memcmp(magic, traceFileMagic, sizeof(magic)) == 0) {
        char rest[8];
        if (!readExact(rest, sizeof(rest), "file header"))
            return false;
        version_ = readU32(rest);
        if (version_ == traceBaseVersion ||
            version_ == traceAttrVersion) {
            format_ = TraceFormat::BinaryV2;
            attribution_ = version_ == traceAttrVersion;
            recordBytes_ = attribution_ ? traceAttrRecordBytes
                                        : traceRecordBytes;
            chunkCapacity_ = readU32(rest + 4);
            return parseV2();
        }
        return fail(strPrintf("unsupported trace version %u",
                              version_));
    }

    // Not a binary trace: require the exact CSV header row.
    is_->clear();
    is_->seekg(0, std::ios::beg);
    std::string line;
    if (!std::getline(*is_, line))
        return fail("unrecognized trace: no CSV header row");
    const std::string expected(traceCsvHeader,
                               sizeof(traceCsvHeader) - 2); // no \n
    const std::string expectedAttr(traceCsvHeaderAttr,
                                   sizeof(traceCsvHeaderAttr) - 2);
    if (line == expectedAttr)
        attribution_ = true;
    else if (line != expected)
        return fail("unrecognized trace: neither binary magic nor "
                    "the CSV header row");
    format_ = TraceFormat::Csv;
    return true;
}

bool
TraceReader::parseV2()
{
    const std::uint64_t minFooter =
        traceFooterPrefixBytes + 4; // prefix + footer CRC
    if (fileSize_ <
        traceFileHeaderBytes + minFooter + traceTrailerBytes)
        return fail("truncated v2 trace: too small for header, "
                    "footer, and trailer");

    // Trailer: footer offset + end magic.
    is_->seekg(static_cast<std::streamoff>(fileSize_ -
                                           traceTrailerBytes),
               std::ios::beg);
    char trailer[traceTrailerBytes];
    if (!readExact(trailer, sizeof(trailer), "v2 trailer"))
        return false;
    if (std::memcmp(trailer + 8, traceEndMagic,
                    sizeof(traceEndMagic)) != 0)
        return fail("corrupt v2 trace: bad end magic (file "
                    "truncated or not finished?)");
    std::uint64_t footerOffset = readU64(trailer);
    if (footerOffset < traceFileHeaderBytes ||
        footerOffset + minFooter + traceTrailerBytes > fileSize_)
        return fail("corrupt v2 trace: footer offset out of range");

    // Footer: prefix + index + CRC.
    std::uint64_t footerLen =
        fileSize_ - traceTrailerBytes - footerOffset;
    is_->seekg(static_cast<std::streamoff>(footerOffset),
               std::ios::beg);
    std::string footer(footerLen, '\0');
    if (!readExact(footer.data(), footerLen, "v2 footer"))
        return false;
    if (std::memcmp(footer.data(), traceFooterMagic,
                    sizeof(traceFooterMagic)) != 0)
        return fail("corrupt v2 trace: bad footer magic");
    std::uint32_t chunkCount = readU32(footer.data() + 4);
    totalRecords_ = readU64(footer.data() + 8);
    std::uint64_t expectedLen =
        traceFooterPrefixBytes +
        static_cast<std::uint64_t>(chunkCount) *
            traceIndexEntryBytes +
        4;
    if (footerLen != expectedLen)
        return fail("corrupt v2 trace: footer length does not match "
                    "its chunk count");
    std::uint32_t storedCrc = readU32(footer.data() + footerLen - 4);
    if (crc32(footer.data(), footerLen - 4) != storedCrc)
        return fail("corrupt v2 trace: footer CRC mismatch");

    // Chunk index: contiguous chunks from the header to the footer,
    // full chunks everywhere but the tail, counts summing to the
    // declared total.
    if (chunkCount > 0 && chunkCapacity_ == 0)
        return fail("corrupt v2 trace: zero chunk capacity");
    chunks_.reserve(chunkCount);
    std::uint64_t offset = traceFileHeaderBytes;
    std::uint64_t firstRecord = 0;
    for (std::uint32_t i = 0; i < chunkCount; ++i) {
        const char *entry = footer.data() + traceFooterPrefixBytes +
                            static_cast<std::size_t>(i) *
                                traceIndexEntryBytes;
        ChunkEntry chunk;
        chunk.offset = readU64(entry);
        chunk.records = readU32(entry + 8);
        chunk.crc = readU32(entry + 12);
        chunk.firstRecord = firstRecord;
        if (chunk.offset != offset)
            return fail(strPrintf(
                "corrupt v2 trace: chunk %u offset mismatch", i));
        if (chunk.records == 0 || chunk.records > chunkCapacity_)
            return fail(strPrintf(
                "corrupt v2 trace: chunk %u record count out of "
                "range", i));
        if (i + 1 < chunkCount && chunk.records != chunkCapacity_)
            return fail(strPrintf(
                "corrupt v2 trace: short chunk %u before the tail",
                i));
        offset += traceChunkHeaderBytes +
                  static_cast<std::uint64_t>(chunk.records) *
                      recordBytes_;
        firstRecord += chunk.records;
        chunks_.push_back(chunk);
    }
    if (offset != footerOffset)
        return fail("corrupt v2 trace: chunks do not fill the space "
                    "before the footer");
    if (firstRecord != totalRecords_)
        return fail("corrupt v2 trace: chunk counts do not sum to "
                    "the footer total");
    return true;
}

bool
TraceReader::loadChunk(std::size_t index)
{
    const ChunkEntry &entry = chunks_[index];
    is_->clear();
    is_->seekg(static_cast<std::streamoff>(entry.offset),
               std::ios::beg);
    char header[traceChunkHeaderBytes];
    if (!readExact(header, sizeof(header), "chunk header"))
        return false;
    if (std::memcmp(header, traceChunkMagic,
                    sizeof(traceChunkMagic)) != 0)
        return fail(strPrintf(
            "corrupt v2 trace: bad magic on chunk %zu", index));
    if (readU32(header + 4) != entry.records)
        return fail(strPrintf(
            "corrupt v2 trace: chunk %zu count disagrees with the "
            "index", index));
    if (readU32(header + 8) != entry.crc)
        return fail(strPrintf(
            "corrupt v2 trace: chunk %zu CRC disagrees with the "
            "index", index));
    std::string payload(
        static_cast<std::size_t>(entry.records) * recordBytes_,
        '\0');
    if (!readExact(payload.data(), payload.size(), "chunk payload"))
        return false;
    if (crc32(payload.data(), payload.size()) != entry.crc)
        return fail(strPrintf(
            "corrupt v2 trace: chunk %zu payload CRC mismatch",
            index));
    chunkBuf_.clear();
    chunkBuf_.reserve(entry.records);
    for (std::uint32_t i = 0; i < entry.records; ++i) {
        CtrlTraceRecord r;
        if (!decodeRecord(payload.data() +
                              static_cast<std::size_t>(i) *
                                  recordBytes_,
                          r, attribution_))
            return fail(strPrintf(
                "corrupt v2 trace: invalid record kind in chunk %zu",
                index));
        chunkBuf_.push_back(r);
    }
    ++chunksDecoded_;
    return true;
}

void
TraceReader::setTickWindow(std::uint64_t minTick,
                           std::uint64_t maxTick)
{
    tickWindowSet_ = true;
    minTick_ = minTick;
    maxTick_ = maxTick;
}

bool
TraceReader::peekChunkTicks(std::size_t index, std::uint64_t &first,
                            std::uint64_t &last)
{
    const ChunkEntry &entry = chunks_[index];
    // The tick is the first 8 bytes of the 24-byte record, and
    // records land in simulation-time order, so the chunk's tick
    // range comes from two tiny reads — no CRC, no decode.
    char buf[8];
    is_->clear();
    is_->seekg(static_cast<std::streamoff>(
                   entry.offset + traceChunkHeaderBytes),
               std::ios::beg);
    if (!readExact(buf, sizeof(buf), "chunk first-tick peek"))
        return false;
    first = readU64(buf);
    is_->seekg(static_cast<std::streamoff>(
                   entry.offset + traceChunkHeaderBytes +
                   static_cast<std::uint64_t>(entry.records - 1) *
                       recordBytes_),
               std::ios::beg);
    if (!readExact(buf, sizeof(buf), "chunk last-tick peek"))
        return false;
    last = readU64(buf);
    return true;
}

bool
TraceReader::next(CtrlTraceRecord &out)
{
    if (!ok() || !is_)
        return false;
    switch (format_) {
    case TraceFormat::Csv:
        return nextCsv(out);
    case TraceFormat::BinaryV2:
        while (chunkPos_ >= chunkBuf_.size()) {
            if (chunkIndex_ >= chunks_.size())
                return false;
            if (tickWindowSet_) {
                std::uint64_t first = 0, last = 0;
                if (!peekChunkTicks(chunkIndex_, first, last))
                    return false;
                if (last < minTick_ || first > maxTick_) {
                    ++chunkIndex_;
                    continue;
                }
            }
            if (!loadChunk(chunkIndex_))
                return false;
            ++chunkIndex_;
            chunkPos_ = 0;
        }
        out = chunkBuf_[chunkPos_++];
        ++recordsRead_;
        return true;
    }
    return false;
}

bool
TraceReader::nextCsv(CtrlTraceRecord &out)
{
    if (csvDone_)
        return false;
    std::string line;
    if (!std::getline(*is_, line)) {
        csvDone_ = true;
        return false;
    }
    char type = 0;
    unsigned long long tick = 0;
    unsigned channel = 0, wordline = 0, bitline = 0, lrs = 0,
             queueDepth = 0;
    float latency = 0.0f;
    WriteAttribution attr{};
    int consumed = 0;
    int fields;
    bool rowOk;
    if (attribution_) {
        fields = std::sscanf(
            line.c_str(),
            "%c,%llu,%u,%u,%u,%u,%f,%u,%d,%d,%d,%d,%d,%d,%d,%d%n",
            &type, &tick, &channel, &wordline, &bitline, &lrs,
            &latency, &queueDepth, &attr.depTicks, &attr.queueTicks,
            &attr.bankTicks, &attr.rcdTicks, &attr.baseTicks,
            &attr.locationTicks, &attr.contentTicks,
            &attr.schemeTicks, &consumed);
        rowOk = fields == 16;
    } else {
        fields = std::sscanf(line.c_str(), "%c,%llu,%u,%u,%u,%u,%f,%u%n",
                             &type, &tick, &channel, &wordline,
                             &bitline, &lrs, &latency, &queueDepth,
                             &consumed);
        rowOk = fields == 8;
    }
    if (!rowOk ||
        consumed != static_cast<int>(line.size()) ||
        (type != 'W' && type != 'R') || channel > 0xFF ||
        wordline > 0xFFFF || bitline > 0xFFFF || lrs > 0xFFFF)
        return fail(strPrintf(
            "malformed CSV trace row %llu: '%.60s'",
            static_cast<unsigned long long>(recordsRead_ + 1),
            line.c_str()));
    out.tick = tick;
    out.kind = type == 'W' ? CtrlTraceRecord::Kind::Write
                           : CtrlTraceRecord::Kind::Read;
    out.channel = static_cast<std::uint8_t>(channel);
    out.wordline = static_cast<std::uint16_t>(wordline);
    out.bitline = static_cast<std::uint16_t>(bitline);
    out.lrsCount = static_cast<std::uint16_t>(lrs);
    out.latencyNs = latency;
    out.queueDepth = queueDepth;
    out.attr = attr;
    ++recordsRead_;
    return true;
}

bool
TraceReader::seekChunk(std::size_t index)
{
    if (!ok() || !is_)
        return false;
    if (format_ != TraceFormat::BinaryV2)
        return fail("seekChunk: only the v2 chunked format supports "
                    "seeking");
    if (index >= chunks_.size())
        return fail(strPrintf(
            "seekChunk: chunk %zu out of range (trace has %zu)",
            index, chunks_.size()));
    if (!loadChunk(index))
        return false;
    chunkIndex_ = index + 1;
    chunkPos_ = 0;
    recordsRead_ = chunks_[index].firstRecord;
    return true;
}

TraceSummary
summarizeTrace(TraceReader &reader)
{
    TraceSummary s;
    CtrlTraceRecord r;
    bool first = true;
    while (reader.next(r)) {
        ++s.records;
        if (first) {
            s.firstTick = r.tick;
            first = false;
        }
        s.lastTick = r.tick;
        if (r.channel >= s.perChannel.size())
            s.perChannel.resize(r.channel + 1, 0);
        ++s.perChannel[r.channel];
        if (r.kind == CtrlTraceRecord::Kind::Write) {
            ++s.writes;
            s.writeLatencySumNs += r.latencyNs;
            s.maxWriteLatencyNs =
                std::max(s.maxWriteLatencyNs, r.latencyNs);
            s.maxLrsCount = std::max(s.maxLrsCount, r.lrsCount);
        } else {
            ++s.reads;
            s.readLatencySumNs += r.latencyNs;
            s.maxReadLatencyNs =
                std::max(s.maxReadLatencyNs, r.latencyNs);
        }
        s.maxQueueDepth = std::max(s.maxQueueDepth, r.queueDepth);
    }
    return s;
}

} // namespace ladder
