/**
 * @file
 * Round-trip and robustness tests for the TraceReader library and the
 * streaming trace sink. The contract under test: every byte sequence
 * — valid traces in all three encodings, truncations, bit flips,
 * random garbage — is either parsed exactly or rejected with
 * ok() == false, never a crash or undefined behaviour (the CI
 * ASan/UBSan job runs this binary), and the streaming sink emits
 * byte-identical output to the buffered serializers while holding at
 * most O(chunk) records in memory.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "ctrl/trace_reader.hh"
#include "ctrl/trace_sink.hh"
#include "ctrl/trace_wire.hh"

namespace fs = std::filesystem;

namespace ladder
{
namespace
{

std::vector<CtrlTraceRecord>
randomRecords(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<CtrlTraceRecord> records;
    records.reserve(count);
    std::uint64_t tick = 0;
    for (std::size_t i = 0; i < count; ++i) {
        CtrlTraceRecord r;
        tick += rng.nextBounded(10'000);
        r.tick = tick;
        r.kind = rng.nextBool(0.7) ? CtrlTraceRecord::Kind::Write
                                   : CtrlTraceRecord::Kind::Read;
        r.channel = static_cast<std::uint8_t>(rng.nextBounded(4));
        r.wordline = static_cast<std::uint16_t>(rng.nextBounded(512));
        r.bitline = static_cast<std::uint16_t>(rng.nextBounded(1024));
        r.lrsCount = static_cast<std::uint16_t>(rng.nextBounded(513));
        r.latencyNs =
            static_cast<float>(rng.nextBounded(400'000)) / 1000.0f;
        r.queueDepth =
            static_cast<std::uint32_t>(rng.nextBounded(64));
        records.push_back(r);
    }
    return records;
}

/**
 * Records with populated blame blocks, including negative components
 * to prove the signed two's-complement wire coding survives.
 */
std::vector<CtrlTraceRecord>
randomAttrRecords(std::size_t count, std::uint64_t seed)
{
    auto records = randomRecords(count, seed);
    Rng rng(seed ^ 0xA77A);
    for (auto &r : records) {
        if (r.kind != CtrlTraceRecord::Kind::Write)
            continue;
        std::int32_t *fields[] = {
            &r.attr.depTicks,     &r.attr.queueTicks,
            &r.attr.bankTicks,    &r.attr.rcdTicks,
            &r.attr.baseTicks,    &r.attr.locationTicks,
            &r.attr.contentTicks, &r.attr.schemeTicks};
        for (std::int32_t *f : fields)
            *f = static_cast<std::int32_t>(
                     rng.nextBounded(2'000'000)) -
                 1'000'000;
    }
    return records;
}

void
expectSameRecord(const CtrlTraceRecord &a, const CtrlTraceRecord &b,
                 std::size_t i)
{
    EXPECT_EQ(a.tick, b.tick) << "record " << i;
    EXPECT_EQ(a.kind, b.kind) << "record " << i;
    EXPECT_EQ(a.channel, b.channel) << "record " << i;
    EXPECT_EQ(a.wordline, b.wordline) << "record " << i;
    EXPECT_EQ(a.bitline, b.bitline) << "record " << i;
    EXPECT_EQ(a.lrsCount, b.lrsCount) << "record " << i;
    EXPECT_EQ(a.queueDepth, b.queueDepth) << "record " << i;
}

void
expectSameAttr(const WriteAttribution &a, const WriteAttribution &b,
               std::size_t i)
{
    EXPECT_EQ(a.depTicks, b.depTicks) << "record " << i;
    EXPECT_EQ(a.queueTicks, b.queueTicks) << "record " << i;
    EXPECT_EQ(a.bankTicks, b.bankTicks) << "record " << i;
    EXPECT_EQ(a.rcdTicks, b.rcdTicks) << "record " << i;
    EXPECT_EQ(a.baseTicks, b.baseTicks) << "record " << i;
    EXPECT_EQ(a.locationTicks, b.locationTicks) << "record " << i;
    EXPECT_EQ(a.contentTicks, b.contentTicks) << "record " << i;
    EXPECT_EQ(a.schemeTicks, b.schemeTicks) << "record " << i;
}

/** Drain @p reader and compare against @p expected exactly. */
void
expectReadsBack(TraceReader &reader,
                const std::vector<CtrlTraceRecord> &expected,
                bool exactLatency = true)
{
    CtrlTraceRecord rec;
    std::size_t i = 0;
    while (reader.next(rec)) {
        ASSERT_LT(i, expected.size());
        expectSameRecord(rec, expected[i], i);
        if (exactLatency) {
            EXPECT_EQ(rec.latencyNs, expected[i].latencyNs)
                << "record " << i;
        } else {
            // CSV prints latency with three decimals.
            EXPECT_NEAR(rec.latencyNs, expected[i].latencyNs, 0.0006)
                << "record " << i;
        }
        ++i;
    }
    EXPECT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(i, expected.size());
    EXPECT_EQ(reader.recordsRead(), expected.size());
}

std::string
serializeV3(const std::vector<CtrlTraceRecord> &records,
            std::size_t chunkRecords)
{
    WriteTraceSink sink;
    sink.setAttribution(true);
    for (const auto &r : records)
        sink.record(r);
    std::ostringstream os;
    sink.writeBinaryV2(os, chunkRecords);
    return os.str();
}

std::string
serializeCsvAttr(const std::vector<CtrlTraceRecord> &records)
{
    WriteTraceSink sink;
    sink.setAttribution(true);
    for (const auto &r : records)
        sink.record(r);
    std::ostringstream os;
    sink.writeCsv(os);
    return os.str();
}

std::string
serializeV2(const std::vector<CtrlTraceRecord> &records,
            std::size_t chunkRecords)
{
    WriteTraceSink sink;
    for (const auto &r : records)
        sink.record(r);
    std::ostringstream os;
    sink.writeBinaryV2(os, chunkRecords);
    return os.str();
}

std::string
serializeCsv(const std::vector<CtrlTraceRecord> &records)
{
    WriteTraceSink sink;
    for (const auto &r : records)
        sink.record(r);
    std::ostringstream os;
    sink.writeCsv(os);
    return os.str();
}

TEST(TraceReader, V2RoundTripAcrossChunkGeometries)
{
    // Partial tail, exact multiple, single oversize chunk, chunk=1.
    const struct
    {
        std::size_t count, chunk;
    } cases[] = {{257, 64}, {256, 64}, {5, 1000}, {7, 1}, {64, 64}};
    for (const auto &c : cases) {
        auto records = randomRecords(c.count, 0xB000 + c.count);
        TraceReader reader;
        ASSERT_TRUE(
            reader.openBuffer(serializeV2(records, c.chunk)))
            << reader.error() << " count=" << c.count;
        EXPECT_EQ(reader.format(), TraceFormat::BinaryV2);
        EXPECT_EQ(reader.version(), 2u);
        EXPECT_EQ(reader.totalRecords(), c.count);
        EXPECT_EQ(reader.chunkCount(),
                  (c.count + c.chunk - 1) / c.chunk);
        expectReadsBack(reader, records);
    }
}

TEST(TraceReader, CsvRoundTrip)
{
    auto records = randomRecords(97, 0xC5);
    TraceReader reader;
    ASSERT_TRUE(reader.openBuffer(serializeCsv(records)))
        << reader.error();
    EXPECT_EQ(reader.format(), TraceFormat::Csv);
    EXPECT_EQ(reader.version(), 0u);
    EXPECT_FALSE(reader.knownTotal());
    expectReadsBack(reader, records, /*exactLatency=*/false);
}

TEST(TraceReader, EmptyTracesRoundTrip)
{
    const std::vector<CtrlTraceRecord> none;
    for (const std::string &bytes :
         {serializeV2(none, 64), serializeV3(none, 64),
          serializeCsv(none)}) {
        TraceReader reader;
        ASSERT_TRUE(reader.openBuffer(bytes)) << reader.error();
        CtrlTraceRecord rec;
        EXPECT_FALSE(reader.next(rec));
        EXPECT_TRUE(reader.ok()) << reader.error();
        EXPECT_EQ(reader.recordsRead(), 0u);
    }
}

TEST(TraceReader, V2ChunkIndexAndSeek)
{
    const std::size_t chunk = 16;
    auto records = randomRecords(100, 0xD7);
    std::string bytes = serializeV2(records, chunk);
    TraceReader reader;
    ASSERT_TRUE(reader.openBuffer(bytes)) << reader.error();
    ASSERT_EQ(reader.chunkCount(), 7u);
    for (std::size_t i = 0; i < reader.chunkCount(); ++i) {
        EXPECT_EQ(reader.chunkFirstRecord(i), i * chunk);
        EXPECT_EQ(reader.chunkRecords(i),
                  i + 1 < reader.chunkCount() ? chunk : 100u % chunk);
    }

    // Seek to the middle, read to the end.
    ASSERT_TRUE(reader.seekChunk(4)) << reader.error();
    CtrlTraceRecord rec;
    std::size_t i = 4 * chunk;
    while (reader.next(rec)) {
        ASSERT_LT(i, records.size());
        expectSameRecord(rec, records[i], i);
        ++i;
    }
    EXPECT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(i, records.size());

    // Seek backwards works too; out-of-range seeks error.
    ASSERT_TRUE(reader.seekChunk(0)) << reader.error();
    ASSERT_TRUE(reader.next(rec));
    expectSameRecord(rec, records[0], 0);
    EXPECT_FALSE(reader.seekChunk(7));
    EXPECT_FALSE(reader.ok());
}

TEST(TraceReader, EveryTruncationIsAnErrorNotACrash)
{
    auto records = randomRecords(20, 0xE1);
    for (const std::string &whole :
         {serializeV2(records, 8), serializeV3(records, 8)}) {
        for (std::size_t len = 0; len < whole.size(); ++len) {
            TraceReader reader;
            reader.openBuffer(whole.substr(0, len));
            // Drain anyway — truncation must never turn into an
            // endless or crashing iteration either.
            CtrlTraceRecord rec;
            while (reader.next(rec)) {
            }
            EXPECT_FALSE(reader.ok())
                << "truncation to " << len << " of " << whole.size()
                << " bytes was not reported as an error";
        }
    }
}

TEST(TraceReader, CsvTruncationAndMalformedRowsError)
{
    auto records = randomRecords(5, 0xE2);
    std::string whole = serializeCsv(records);
    // Truncating mid-row (not at a line boundary) must error.
    std::size_t lastNewline = whole.find_last_of('\n', whole.size() - 2);
    TraceReader reader;
    reader.openBuffer(whole.substr(0, lastNewline + 5));
    CtrlTraceRecord rec;
    while (reader.next(rec)) {
    }
    EXPECT_FALSE(reader.ok());

    const char *bad[] = {
        // Wrong header.
        "type,tick\nW,1,0,0,0,0,1.0,0\n",
        // Bad kind letter.
        "type,tick,channel,wordline,bitline,lrs_count,latency_ns,"
        "queue_depth\nX,1,0,0,0,0,1.0,0\n",
        // Missing fields.
        "type,tick,channel,wordline,bitline,lrs_count,latency_ns,"
        "queue_depth\nW,1,0,0\n",
        // Out-of-range channel.
        "type,tick,channel,wordline,bitline,lrs_count,latency_ns,"
        "queue_depth\nW,1,4000,0,0,0,1.0,0\n",
        // Trailing garbage on the row.
        "type,tick,channel,wordline,bitline,lrs_count,latency_ns,"
        "queue_depth\nW,1,0,0,0,0,1.0,0,junk\n",
    };
    for (const char *text : bad) {
        TraceReader r;
        r.openBuffer(text);
        while (r.next(rec)) {
        }
        EXPECT_FALSE(r.ok()) << "accepted malformed CSV: " << text;
    }
}

TEST(TraceReader, BadMagicAndVersionError)
{
    auto records = randomRecords(4, 0xE3);
    std::string v2 = serializeV2(records, 8);

    std::string badMagic = v2;
    badMagic[3] ^= 0x40;
    TraceReader reader;
    EXPECT_FALSE(reader.openBuffer(badMagic));
    EXPECT_FALSE(reader.ok());

    std::string badVersion = v2;
    badVersion[8] = 99; // version 99 does not exist (3 = attribution)
    TraceReader r2;
    EXPECT_FALSE(r2.openBuffer(badVersion));
    EXPECT_NE(r2.error().find("version"), std::string::npos)
        << r2.error();

    // The retired v1 packed binary is refused by version.
    std::string v1Header = v2;
    v1Header[8] = 1;
    TraceReader r3;
    EXPECT_FALSE(r3.openBuffer(v1Header));
    EXPECT_NE(r3.error().find("unsupported trace version 1"),
              std::string::npos)
        << r3.error();

    // Trailing garbage hides the end magic.
    TraceReader r4;
    r4.openBuffer(v2 + "x");
    CtrlTraceRecord rec;
    while (r4.next(rec)) {
    }
    EXPECT_FALSE(r4.ok());
}

TEST(TraceReader, EveryV2ByteFlipIsDetectedOrHarmless)
{
    auto records = randomRecords(20, 0xE4);
    std::string whole = serializeV2(records, 8);
    for (std::size_t pos = 0; pos < whole.size(); ++pos) {
        std::string flipped = whole;
        flipped[pos] ^= 0x01;
        TraceReader reader;
        bool opened = reader.openBuffer(std::move(flipped));
        std::vector<CtrlTraceRecord> got;
        CtrlTraceRecord rec;
        while (reader.next(rec))
            got.push_back(rec);
        if (pos >= 16) {
            // Everything after the file header is covered by a chunk
            // CRC, the footer CRC, or cross-validation against the
            // index, so a flip there must be *detected*.
            EXPECT_FALSE(reader.ok())
                << "flip at offset " << pos << " went undetected";
        } else if (opened && reader.ok()) {
            // Header flips may be tolerated (e.g. the chunk-capacity
            // field when the index stays consistent) but then the
            // decoded records must be untouched.
            ASSERT_EQ(got.size(), records.size())
                << "flip at offset " << pos;
            for (std::size_t i = 0; i < got.size(); ++i)
                expectSameRecord(got[i], records[i], i);
        }
    }
}

TEST(TraceReader, RandomGarbageNeverCrashes)
{
    Rng rng(0xF00D);
    for (int round = 0; round < 200; ++round) {
        std::size_t len = rng.nextBounded(512);
        std::string bytes(len, '\0');
        for (auto &b : bytes)
            b = static_cast<char>(rng.nextBounded(256));
        TraceReader reader;
        reader.openBuffer(std::move(bytes));
        CtrlTraceRecord rec;
        // Bounded by construction: next() returns false on error.
        while (reader.next(rec)) {
        }
        SUCCEED();
    }
}

TEST(TraceStream, BoundedMemoryByteIdenticalToBuffered)
{
    const std::size_t chunk = 64;
    const std::size_t count = chunk * 12 + 5; // >= 10 chunks
    auto records = randomRecords(count, 0x51);

    fs::path dir = fs::path(::testing::TempDir()) / "ladder_stream";
    fs::create_directories(dir);
    fs::path binPath = dir / "stream.bin";
    fs::path csvPath = dir / "stream.csv";

    {
        WriteTraceSink sink(binPath.string(), TraceFormat::BinaryV2,
                            chunk);
        ASSERT_TRUE(sink.streaming());
        for (const auto &r : records)
            sink.record(r);
        sink.finish();
        EXPECT_EQ(sink.size(), count);
        // The bounded-memory guarantee: one fill chunk, never the
        // whole trace.
        EXPECT_LE(sink.peakBufferedRecords(), chunk);
    }
    {
        WriteTraceSink sink(csvPath.string(), TraceFormat::Csv, chunk);
        for (const auto &r : records)
            sink.record(r);
        sink.finish();
        EXPECT_LE(sink.peakBufferedRecords(), chunk);
    }

    auto slurp = [](const fs::path &p) {
        std::ifstream is(p, std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        return os.str();
    };
    EXPECT_EQ(slurp(binPath), serializeV2(records, chunk))
        << "streamed v2 bytes differ from buffered serialization";
    EXPECT_EQ(slurp(csvPath), serializeCsv(records))
        << "streamed CSV bytes differ from buffered serialization";

    // And the streamed file reads back exactly.
    TraceReader reader;
    ASSERT_TRUE(reader.open(binPath.string())) << reader.error();
    EXPECT_GE(reader.chunkCount(), 10u);
    expectReadsBack(reader, records);

    fs::remove_all(dir);
}

TEST(TraceStream, ClearRestartsTheOutputFile)
{
    auto ramp = randomRecords(100, 0x52);
    auto measured = randomRecords(37, 0x53);

    fs::path dir = fs::path(::testing::TempDir()) / "ladder_clear";
    fs::create_directories(dir);
    fs::path path = dir / "trace.bin";

    {
        WriteTraceSink sink(path.string(), TraceFormat::BinaryV2, 16);
        for (const auto &r : ramp)
            sink.record(r);
        // System::run drops ramp records at the measured-window
        // boundary; the streamed file must restart too.
        sink.clear();
        EXPECT_EQ(sink.size(), 0u);
        for (const auto &r : measured)
            sink.record(r);
        sink.finish();
        EXPECT_EQ(sink.size(), measured.size());
    }
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    EXPECT_EQ(os.str(), serializeV2(measured, 16));

    fs::remove_all(dir);
}

TEST(TraceStream, WriteErrorPanicsOnce)
{
    // Every write to /dev/full fails with ENOSPC.
    if (!fs::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full";
    auto records = randomRecords(2048, 0x55);
    {
        // A chunk larger than the stream buffer fails as it is
        // written; the destructor must not panic again.
        WriteTraceSink sink("/dev/full", TraceFormat::BinaryV2, 1024);
        std::size_t i = 0;
        EXPECT_THROW(
            for (; i < records.size(); ++i) sink.record(records[i]),
            std::logic_error);
        EXPECT_EQ(i + 1, 1024u);
    }
    {
        // A small trace fails when finish() flushes it.
        WriteTraceSink sink("/dev/full", TraceFormat::Csv, 1024);
        sink.record(records.front());
        EXPECT_THROW(sink.finish(), std::logic_error);
    }
}

TEST(TraceSummary, AggregatesMatchHandComputation)
{
    auto records = randomRecords(500, 0x54);
    TraceReader reader;
    ASSERT_TRUE(reader.openBuffer(serializeV2(records, 64)))
        << reader.error();
    TraceSummary s = summarizeTrace(reader);
    ASSERT_TRUE(reader.ok()) << reader.error();

    std::uint64_t writes = 0;
    float maxWrite = 0.0f;
    std::uint32_t maxQueue = 0;
    for (const auto &r : records) {
        if (r.kind == CtrlTraceRecord::Kind::Write) {
            ++writes;
            maxWrite = std::max(maxWrite, r.latencyNs);
        }
        maxQueue = std::max(maxQueue, r.queueDepth);
    }
    EXPECT_EQ(s.records, records.size());
    EXPECT_EQ(s.writes, writes);
    EXPECT_EQ(s.reads, records.size() - writes);
    EXPECT_EQ(s.firstTick, records.front().tick);
    EXPECT_EQ(s.lastTick, records.back().tick);
    EXPECT_EQ(s.maxWriteLatencyNs, maxWrite);
    EXPECT_EQ(s.maxQueueDepth, maxQueue);
}

/** 32 records, ticks 0,100,...,3100, in 4 chunks of 8. */
std::vector<CtrlTraceRecord>
windowRecords()
{
    std::vector<CtrlTraceRecord> records;
    for (std::size_t i = 0; i < 32; ++i) {
        CtrlTraceRecord r;
        r.tick = i * 100;
        r.kind = i % 2 == 0 ? CtrlTraceRecord::Kind::Write
                            : CtrlTraceRecord::Kind::Read;
        r.channel = static_cast<std::uint8_t>(i % 4);
        r.lrsCount = static_cast<std::uint16_t>(i);
        r.latencyNs = 10.0f;
        records.push_back(r);
    }
    return records;
}

TEST(TraceWindow, SkipsChunksOutsideTheTickWindow)
{
    auto records = windowRecords();
    const std::string bytes = serializeV2(records, 8);

    // Window covering exactly chunk 1 (ticks 800..1500).
    TraceReader reader;
    ASSERT_TRUE(reader.openBuffer(bytes)) << reader.error();
    reader.setTickWindow(800, 1500);
    CtrlTraceRecord rec;
    std::size_t i = 8;
    while (reader.next(rec)) {
        expectSameRecord(rec, records[i], i);
        ++i;
    }
    EXPECT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(i, 16u);
    // Only the one overlapping chunk was ever CRC-checked/decoded.
    EXPECT_EQ(reader.chunksDecoded(), 1u);
    EXPECT_EQ(reader.recordsRead(), 8u);

    // A boundary window delivers the *whole* overlapping chunks:
    // [750, 850] only intersects chunk 1's range, and the caller is
    // responsible for per-record trimming.
    ASSERT_TRUE(reader.openBuffer(bytes)) << reader.error();
    reader.setTickWindow(750, 850);
    std::size_t delivered = 0;
    while (reader.next(rec))
        ++delivered;
    EXPECT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(delivered, 8u);
    EXPECT_EQ(reader.chunksDecoded(), 1u);

    // An empty window decodes nothing.
    ASSERT_TRUE(reader.openBuffer(bytes)) << reader.error();
    reader.setTickWindow(10'000, 20'000);
    EXPECT_FALSE(reader.next(rec));
    EXPECT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.chunksDecoded(), 0u);

    // No window (or re-open) scans everything.
    ASSERT_TRUE(reader.openBuffer(bytes)) << reader.error();
    delivered = 0;
    while (reader.next(rec))
        ++delivered;
    EXPECT_EQ(delivered, 32u);
    EXPECT_EQ(reader.chunksDecoded(), 4u);
}

TEST(TraceAttr, V3AndCsvRoundTripTheBlameBlock)
{
    auto records = randomAttrRecords(131, 0xAA01);
    {
        TraceReader reader;
        ASSERT_TRUE(reader.openBuffer(serializeV3(records, 16)))
            << reader.error();
        EXPECT_EQ(reader.format(), TraceFormat::BinaryV2);
        EXPECT_EQ(reader.version(), traceAttrVersion);
        EXPECT_TRUE(reader.attribution());
        CtrlTraceRecord rec;
        std::size_t i = 0;
        while (reader.next(rec)) {
            ASSERT_LT(i, records.size());
            expectSameRecord(rec, records[i], i);
            EXPECT_EQ(rec.latencyNs, records[i].latencyNs);
            expectSameAttr(rec.attr, records[i].attr, i);
            ++i;
        }
        EXPECT_TRUE(reader.ok()) << reader.error();
        EXPECT_EQ(i, records.size());
    }
    {
        TraceReader reader;
        ASSERT_TRUE(reader.openBuffer(serializeCsvAttr(records)))
            << reader.error();
        EXPECT_EQ(reader.format(), TraceFormat::Csv);
        EXPECT_TRUE(reader.attribution());
        CtrlTraceRecord rec;
        std::size_t i = 0;
        while (reader.next(rec)) {
            ASSERT_LT(i, records.size());
            expectSameRecord(rec, records[i], i);
            expectSameAttr(rec.attr, records[i].attr, i);
            ++i;
        }
        EXPECT_TRUE(reader.ok()) << reader.error();
        EXPECT_EQ(i, records.size());
    }
    // Base-format reads of the same records leave attr all zero.
    TraceReader base;
    ASSERT_TRUE(base.openBuffer(serializeV2(records, 16)))
        << base.error();
    EXPECT_FALSE(base.attribution());
    CtrlTraceRecord rec;
    while (base.next(rec))
        expectSameAttr(rec.attr, WriteAttribution{}, 0);
}

TEST(TraceAttr, OffSerializationIgnoresPopulatedBlameBlocks)
{
    // The byte-differential guarantee: attribution-off output of
    // records whose in-memory attr fields are populated is identical
    // to the output of the same records with attr zeroed — the off
    // path never reads the blame block at all.
    auto records = randomAttrRecords(64, 0xAA02);
    auto zeroed = records;
    for (auto &r : zeroed)
        r.attr = WriteAttribution{};
    EXPECT_EQ(serializeV2(records, 8), serializeV2(zeroed, 8));
    EXPECT_EQ(serializeCsv(records), serializeCsv(zeroed));
    EXPECT_EQ(serializeV2(records, 1), serializeV2(zeroed, 1));
}

TEST(TraceAttr, CsvAttributionAddsExactlyTheBlameColumns)
{
    auto records = randomAttrRecords(48, 0xAA03);
    std::istringstream attr(serializeCsvAttr(records));
    std::istringstream plain(serializeCsv(records));
    std::string attrLine, plainLine;
    std::size_t line = 0;
    while (std::getline(plain, plainLine)) {
        ASSERT_TRUE(std::getline(attr, attrLine)) << "line " << line;
        // Each attr row is the base row plus 8 comma fields.
        ASSERT_GT(attrLine.size(), plainLine.size()) << attrLine;
        if (line == 0) {
            EXPECT_EQ(attrLine, std::string(traceCsvHeaderAttr)
                                    .substr(0, attrLine.size()));
        } else {
            EXPECT_EQ(attrLine.substr(0, plainLine.size()),
                      plainLine)
                << "line " << line;
            EXPECT_EQ(attrLine[plainLine.size()], ',');
            std::size_t commas = 0;
            for (std::size_t p = plainLine.size();
                 p < attrLine.size(); ++p)
                commas += attrLine[p] == ',' ? 1 : 0;
            EXPECT_EQ(commas, 8u) << attrLine;
        }
        ++line;
    }
    EXPECT_FALSE(std::getline(attr, attrLine));
}

TEST(TraceAttr, V3TruncationWallErrorsNeverCrash)
{
    auto records = randomAttrRecords(20, 0xAA04);
    const std::string whole = serializeV3(records, 8);
    for (std::size_t len = 0; len < whole.size(); ++len) {
        TraceReader reader;
        reader.openBuffer(whole.substr(0, len));
        CtrlTraceRecord rec;
        while (reader.next(rec)) {
        }
        EXPECT_FALSE(reader.ok())
            << "v3 truncation to " << len << " of " << whole.size()
            << " bytes was not reported as an error";
    }
}

TEST(TraceAttr, EveryV3ByteFlipIsDetectedOrHarmless)
{
    auto records = randomAttrRecords(20, 0xAA05);
    const std::string whole = serializeV3(records, 8);
    for (std::size_t pos = 0; pos < whole.size(); ++pos) {
        std::string flipped = whole;
        flipped[pos] ^= 0x01;
        TraceReader reader;
        bool opened = reader.openBuffer(std::move(flipped));
        std::vector<CtrlTraceRecord> got;
        CtrlTraceRecord rec;
        while (reader.next(rec))
            got.push_back(rec);
        if (pos >= 16) {
            // The blame block rides inside the chunk payloads, so the
            // same CRC/index wall covers it byte for byte.
            EXPECT_FALSE(reader.ok())
                << "v3 flip at offset " << pos << " went undetected";
        } else if (opened && reader.ok()) {
            ASSERT_EQ(got.size(), records.size())
                << "flip at offset " << pos;
            for (std::size_t i = 0; i < got.size(); ++i) {
                expectSameRecord(got[i], records[i], i);
                expectSameAttr(got[i].attr, records[i].attr, i);
            }
        }
    }
}

TEST(TraceAttr, StreamingV3MatchesBufferedBytes)
{
    const std::size_t chunk = 32;
    auto records = randomAttrRecords(chunk * 5 + 3, 0xAA06);
    fs::path dir = fs::path(::testing::TempDir()) / "ladder_attr";
    fs::create_directories(dir);
    auto slurp = [](const fs::path &p) {
        std::ifstream is(p, std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        return os.str();
    };
    {
        fs::path path = dir / "attr.bin";
        WriteTraceSink sink(path.string(), TraceFormat::BinaryV2,
                            chunk, /*attribution=*/true);
        EXPECT_TRUE(sink.attribution());
        for (const auto &r : records)
            sink.record(r);
        sink.finish();
        EXPECT_EQ(slurp(path), serializeV3(records, chunk))
            << "streamed v3 bytes differ from buffered";
    }
    {
        fs::path path = dir / "attr.csv";
        WriteTraceSink sink(path.string(), TraceFormat::Csv, chunk,
                            /*attribution=*/true);
        for (const auto &r : records)
            sink.record(r);
        sink.finish();
        EXPECT_EQ(slurp(path), serializeCsvAttr(records))
            << "streamed attr CSV bytes differ from buffered";
    }
    fs::remove_all(dir);
}

TEST(TraceWindow, SkippedChunksAreNeverCrcCheckedOrDecoded)
{
    auto records = windowRecords();
    std::string bytes = serializeV2(records, 8);

    // Corrupt a *payload* byte of chunk 2 — the lrsCount field of
    // its fourth record, well away from the peeked tick bytes — so
    // any CRC check or decode of that chunk must fail.
    const std::size_t chunkBytes =
        traceChunkHeaderBytes + 8 * traceRecordBytes;
    const std::size_t corruptAt = traceFileHeaderBytes +
                                  2 * chunkBytes +
                                  traceChunkHeaderBytes +
                                  3 * traceRecordBytes + 14;
    bytes[corruptAt] = static_cast<char>(bytes[corruptAt] ^ 0x5A);

    // A full scan trips over the corruption...
    TraceReader reader;
    ASSERT_TRUE(reader.openBuffer(bytes)) << reader.error();
    CtrlTraceRecord rec;
    while (reader.next(rec)) {
    }
    EXPECT_FALSE(reader.ok());
    EXPECT_NE(reader.error().find("CRC"), std::string::npos)
        << reader.error();

    // ...but a windowed scan that excludes chunk 2 never touches it:
    // the corrupt chunk is skipped from the 16-byte tick peek alone.
    ASSERT_TRUE(reader.openBuffer(bytes)) << reader.error();
    reader.setTickWindow(0, 1500); // chunks 0 and 1 only
    std::size_t i = 0;
    while (reader.next(rec)) {
        expectSameRecord(rec, records[i], i);
        ++i;
    }
    EXPECT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(i, 16u);
    EXPECT_EQ(reader.chunksDecoded(), 2u);
}

} // namespace
} // namespace ladder
