/**
 * @file
 * Fuzz/robustness wall for the external-trace workload frontend
 * (trace/extern_trace, trace/workload_frontend). The contract under
 * test mirrors test_trace_reader's: every byte sequence — valid
 * DRAMsim3 text, valid bin2 containers, every truncation, every byte
 * flip, random garbage, and format confusion — is either parsed
 * exactly or rejected with a descriptive error, never a crash or
 * undefined behaviour (the CI ASan/UBSan job runs this binary).
 * On top of the parsers, the replay source's determinism, address
 * remapping, and content synthesis are property-tested, and the
 * committed ~1k-record mini trace fixture runs end to end through the
 * full System with manifest provenance and jobs= byte-identity
 * checks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "ctrl/trace_sink.hh"
#include "sim/config_resolve.hh"
#include "sim/experiment.hh"
#include "sim/stats_export.hh"
#include "trace/extern_trace.hh"
#include "trace/workload_frontend.hh"

#ifndef LADDER_DATA_DIR
#error "LADDER_DATA_DIR must point at the committed tests/data files"
#endif

namespace fs = std::filesystem;

namespace ladder
{
namespace
{

/** Pin the manifest before gitDescribeString can memoize (see
 *  test_golden_run). */
const bool pinnedDescribe = []() {
    ::setenv("LADDER_GIT_DESCRIBE", "golden", /*overwrite=*/1);
    return true;
}();

const fs::path miniTrace =
    fs::path(LADDER_DATA_DIR) / "mini_dramsim3.trace";

std::string
makeDramsim3Text(std::size_t count, std::uint64_t seed,
                 std::vector<ExternRecord> *expected = nullptr)
{
    Rng rng(seed);
    std::ostringstream os;
    os << "# synthetic fixture\n\n";
    std::uint64_t cycle = 0;
    for (std::size_t i = 0; i < count; ++i) {
        cycle += 1 + rng.nextBounded(20);
        ExternRecord r;
        r.addr = rng.nextBounded(std::uint64_t{1} << 40) & ~0x3full;
        r.isWrite = rng.nextBool(0.4);
        r.cycle = cycle;
        os << "0x" << std::hex << r.addr << std::dec << " "
           << (r.isWrite ? "WRITE" : "READ") << " " << r.cycle
           << "\n";
        if (expected)
            expected->push_back(r);
    }
    return os.str();
}

std::vector<CtrlTraceRecord>
randomCtrlRecords(std::size_t count, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<CtrlTraceRecord> records;
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

std::string
serializeBin2(const std::vector<CtrlTraceRecord> &records,
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
slurp(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

fs::path
tempFile(const std::string &name, const std::string &content)
{
    fs::path dir = fs::path(::testing::TempDir()) / "ladder_frontend";
    fs::create_directories(dir);
    fs::path path = dir / name;
    std::ofstream os(path, std::ios::binary);
    os << content;
    return path;
}

// ---------------------------------------------------------------
// DRAMsim3 text parser
// ---------------------------------------------------------------

TEST(ExternParse, Dramsim3RoundTrip)
{
    std::vector<ExternRecord> expected;
    std::string text = makeDramsim3Text(200, 0xD1, &expected);
    ExternParseResult result = parseExternTrace(text);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.format, ExternTraceFormat::Dramsim3);
    ASSERT_EQ(result.records.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(result.records[i].addr, expected[i].addr) << i;
        EXPECT_EQ(result.records[i].isWrite, expected[i].isWrite)
            << i;
        EXPECT_EQ(result.records[i].cycle, expected[i].cycle) << i;
        EXPECT_EQ(result.records[i].lrsCount, 0xffff) << i;
    }
    EXPECT_EQ(result.crc32, crc32(text.data(), text.size()));
}

TEST(ExternParse, Dramsim3AcceptsCommonVariants)
{
    const std::string text = "# comment line\n"
                             "\n"
                             "0x1f00 READ 1\n"
                             "1f40 W 2\r\n"
                             "0X1F80\tr\t3\n"
                             "  1fc0 write 4  \n";
    ExternParseResult result = parseExternTrace(text);
    ASSERT_TRUE(result.ok()) << result.error;
    ASSERT_EQ(result.records.size(), 4u);
    EXPECT_EQ(result.records[0].addr, 0x1f00u);
    EXPECT_FALSE(result.records[0].isWrite);
    EXPECT_TRUE(result.records[1].isWrite);
    EXPECT_EQ(result.records[2].addr, 0x1f80u);
    EXPECT_FALSE(result.records[2].isWrite);
    EXPECT_TRUE(result.records[3].isWrite);
    EXPECT_EQ(result.records[3].cycle, 4u);
}

TEST(ExternParse, Dramsim3RejectsMalformedLines)
{
    struct Case
    {
        const char *text;
        const char *needle; //!< expected substring of the error
    };
    const Case bad[] = {
        {"0x40 READ\n", "expected"},           // missing cycle
        {"0x40\n", "expected"},                // op+cycle missing
        {"0x40 READ 1 extra\n", "expected"},   // trailing token
        {"zz40 READ 1\n", "bad hex address"},  // bad radix
        {"0x READ 1\n", "bad hex address"},    // empty after 0x
        {"0x40 FETCH 1\n", "bad op"},          // unknown op
        {"0x40 READ -1\n", "bad cycle"},       // signed cycle
        {"0x40 READ 1x\n", "bad cycle"},       // junk in cycle
        {"0x40 READ 99999999999999999999\n", "bad cycle"}, // overflow
        {"0xfffffffffffffffff READ 1\n", "bad hex address"}, // 68 bits
        {"", "no requests"},                   // empty input
        {"# only comments\n\n", "no requests"},
        {"0x40 READ 1\n\x01\x02\x03\n", "non-text"}, // binary bytes
    };
    for (const Case &c : bad) {
        ExternParseResult result = parseExternTrace(c.text);
        EXPECT_FALSE(result.ok()) << "accepted: " << c.text;
        EXPECT_TRUE(result.records.empty());
        EXPECT_NE(result.error.find(c.needle), std::string::npos)
            << "error for '" << c.text << "' was: " << result.error;
    }
    // Errors carry the offending line number.
    ExternParseResult lined = parseExternTrace(
        "0x40 READ 1\n0x80 WRITE 2\nbogus\n");
    ASSERT_FALSE(lined.ok());
    EXPECT_NE(lined.error.find("line 3"), std::string::npos)
        << lined.error;
}

TEST(ExternParse, Dramsim3EveryTruncationNeverCrashes)
{
    std::string whole = makeDramsim3Text(24, 0xD2);
    ExternParseResult full = parseExternTrace(whole);
    ASSERT_TRUE(full.ok());
    for (std::size_t len = 0; len < whole.size(); ++len) {
        ExternParseResult result =
            parseExternTrace(whole.substr(0, len));
        // Text truncation at a line boundary is a legal shorter
        // trace; mid-line truncation or an empty result must error.
        if (result.ok()) {
            EXPECT_FALSE(result.records.empty());
            EXPECT_LE(result.records.size(), full.records.size());
        } else {
            EXPECT_TRUE(result.records.empty());
            EXPECT_FALSE(result.error.empty());
        }
    }
}

// ---------------------------------------------------------------
// bin2 replay (through ctrl/TraceReader)
// ---------------------------------------------------------------

TEST(ExternParse, Bin2RoundTripAndAutoDetect)
{
    auto records = randomCtrlRecords(100, 0xB1);
    std::string bytes = serializeBin2(records, 16);
    ExternParseResult result = parseExternTrace(bytes);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.format, ExternTraceFormat::Bin2);
    ASSERT_EQ(result.records.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        const bool isWrite =
            records[i].kind == CtrlTraceRecord::Kind::Write;
        EXPECT_EQ(result.records[i].isWrite, isWrite) << i;
        EXPECT_EQ(result.records[i].cycle, records[i].tick) << i;
        EXPECT_EQ(result.records[i].lrsCount,
                  isWrite ? records[i].lrsCount : 0xffff)
            << i;
        // Line addresses preserve (channel, wordline) structure.
        EXPECT_EQ(result.records[i].addr,
                  ((std::uint64_t{records[i].channel} << 16 |
                    records[i].wordline) *
                   lineBytes))
            << i;
    }
}

TEST(ExternParse, Bin2EveryTruncationIsAnError)
{
    auto records = randomCtrlRecords(20, 0xB2);
    std::string whole = serializeBin2(records, 8);
    for (std::size_t len = 0; len < whole.size(); ++len) {
        ExternParseResult result =
            parseExternTrace(whole.substr(0, len));
        EXPECT_FALSE(result.ok())
            << "truncation to " << len << " of " << whole.size()
            << " bytes was not reported";
        EXPECT_TRUE(result.records.empty());
    }
}

TEST(ExternParse, Bin2EveryByteFlipIsDetectedOrHarmless)
{
    auto records = randomCtrlRecords(20, 0xB3);
    std::string whole = serializeBin2(records, 8);
    for (std::size_t pos = 0; pos < whole.size(); ++pos) {
        std::string flipped = whole;
        flipped[pos] ^= 0x01;
        // A flip in the magic sends the bytes to the text parser,
        // which must reject them or yield the same records.
        ExternParseResult result = parseExternTrace(flipped);
        if (pos >= 16) {
            // Chunk payloads, the footer, and the index are CRC- or
            // cross-validated; flips there must be detected.
            EXPECT_FALSE(result.ok())
                << "flip at offset " << pos << " went undetected";
        } else if (result.ok()) {
            ASSERT_EQ(result.records.size(), records.size())
                << "flip at offset " << pos;
        }
    }
}

TEST(ExternParse, MixedFormatConfusionIsRejected)
{
    // A controller CSV trace is neither format.
    std::string csv =
        "type,tick,channel,wordline,bitline,lrs_count,latency_ns,"
        "queue_depth\nW,1,0,0,0,0,1.0,0\n";
    EXPECT_FALSE(parseExternTrace(csv).ok());

    // Nor is the retired core-level LDTRACE1 recording format.
    std::string ldtrace = "LDTRACE1";
    ldtrace.append(16, '\0');
    EXPECT_FALSE(parseExternTrace(ldtrace).ok());
}

TEST(ExternParse, RandomGarbageNeverCrashes)
{
    Rng rng(0xF00D);
    for (int round = 0; round < 200; ++round) {
        std::size_t len = rng.nextBounded(512);
        std::string bytes(len, '\0');
        for (auto &b : bytes)
            b = static_cast<char>(rng.nextBounded(256));
        ExternParseResult result = parseExternTrace(bytes);
        EXPECT_EQ(result.ok(), result.error.empty());
    }
    SUCCEED();
}

// ---------------------------------------------------------------
// Replay source properties
// ---------------------------------------------------------------

std::shared_ptr<const ExternParseResult>
parsedFixture()
{
    static std::shared_ptr<const ExternParseResult> fixture = [] {
        auto result = std::make_shared<ExternParseResult>(
            parseExternTrace(slurp(miniTrace)));
        return result;
    }();
    return fixture;
}

TEST(ExternSource, MiniFixtureParses)
{
    auto fixture = parsedFixture();
    ASSERT_TRUE(fixture->ok()) << fixture->error;
    EXPECT_EQ(fixture->format, ExternTraceFormat::Dramsim3);
    EXPECT_EQ(fixture->records.size(), 1024u);
}

TEST(ExternSource, DeterministicAndSeedSensitive)
{
    auto fixture = parsedFixture();
    ASSERT_TRUE(fixture->ok());
    ExternTraceOptions opts;
    opts.footprintPages = 64;
    ExternalTraceSource a(fixture, opts, 42);
    ExternalTraceSource b(fixture, opts, 42);
    ExternalTraceSource c(fixture, opts, 43);
    bool anyDiffers = false;
    for (int i = 0; i < 4000; ++i) {
        TraceRecord ra = a.next();
        TraceRecord rb = b.next();
        TraceRecord rc = c.next();
        ASSERT_EQ(ra.lineAddr, rb.lineAddr) << i;
        ASSERT_EQ(ra.isWrite, rb.isWrite) << i;
        ASSERT_EQ(ra.nonMemBefore, rb.nonMemBefore) << i;
        ASSERT_EQ(ra.storeOffset, rb.storeOffset) << i;
        ASSERT_EQ(ra.storeData, rb.storeData) << i;
        // Same trace => same address stream at any seed; only the
        // synthesized content varies.
        ASSERT_EQ(ra.lineAddr, rc.lineAddr) << i;
        ASSERT_EQ(ra.isWrite, rc.isWrite) << i;
        anyDiffers |= ra.isWrite && (ra.storeData != rc.storeData ||
                                     ra.storeOffset != rc.storeOffset);
    }
    EXPECT_TRUE(anyDiffers)
        << "seed does not reach the content synthesis";
    EXPECT_GE(a.loops(), 2u); // 4000 draws over a 1024-record trace
}

TEST(ExternSource, AddressesStayInsideTheFootprint)
{
    auto fixture = parsedFixture();
    ASSERT_TRUE(fixture->ok());
    for (std::uint64_t pages : {1ull, 7ull, 64ull}) {
        ExternTraceOptions opts;
        opts.footprintPages = pages;
        ExternalTraceSource source(fixture, opts, 7);
        EXPECT_EQ(source.footprintBytes(), pages * 4096);
        for (int i = 0; i < 3000; ++i) {
            TraceRecord rec = source.next();
            EXPECT_LT(rec.lineAddr, source.footprintBytes());
            EXPECT_EQ(rec.lineAddr % lineBytes, 0u);
            if (rec.isWrite) {
                EXPECT_LT(rec.storeOffset, lineBytes);
                EXPECT_EQ(rec.storeOffset % 8, 0u);
            } else {
                EXPECT_EQ(rec.storeOffset, 0u);
            }
        }
    }
}

TEST(ExternSource, LrsContentSynthesisTracksRecordedCounts)
{
    // A bin2 trace with known LRS counts: 0 -> zero words,
    // 512 -> all-ones words, k -> popcount round(64k/512).
    std::vector<CtrlTraceRecord> records;
    for (std::uint16_t lrs : {0, 8, 64, 256, 500, 512}) {
        CtrlTraceRecord r;
        r.kind = CtrlTraceRecord::Kind::Write;
        r.tick = records.size();
        r.lrsCount = lrs;
        r.wordline = static_cast<std::uint16_t>(records.size());
        records.push_back(r);
    }
    auto parsed = std::make_shared<ExternParseResult>(
        parseExternTrace(serializeBin2(records, 4)));
    ASSERT_TRUE(parsed->ok()) << parsed->error;
    ExternTraceOptions opts;
    opts.footprintPages = 16;
    opts.content = ExternContentMode::Auto;
    ExternalTraceSource source(parsed, opts, 99);
    for (std::size_t i = 0; i < records.size(); ++i) {
        TraceRecord rec = source.next();
        ASSERT_TRUE(rec.isWrite);
        std::uint64_t word = 0;
        std::memcpy(&word, rec.storeData.data(), sizeof(word));
        const unsigned expectedBits = static_cast<unsigned>(
            (std::uint64_t{records[i].lrsCount} * 64 + 256) / 512);
        EXPECT_EQ(static_cast<unsigned>(std::popcount(word)),
                  expectedBits)
            << "lrs=" << records[i].lrsCount;
    }
}

// ---------------------------------------------------------------
// Frontend name handling
// ---------------------------------------------------------------

TEST(Frontend, TraceNamesAreStructural)
{
    EXPECT_TRUE(isTraceWorkload("trace:/tmp/x.trace"));
    EXPECT_FALSE(isTraceWorkload("lbm"));
    EXPECT_FALSE(isTraceWorkload("traces:/tmp/x.trace"));
    EXPECT_EQ(traceWorkloadPath("trace:/a/b c.txt"), "/a/b c.txt");
    EXPECT_EQ(traceWorkloadPath("lbm"), "");

    EXPECT_NO_THROW(validateWorkloadName("trace:/any/path", "test"));
    EXPECT_THROW(validateWorkloadName("trace:", "test"),
                 std::runtime_error);
    EXPECT_THROW(validateWorkloadName("dnn-updat", "test"),
                 std::runtime_error);
    for (const auto &name : registeredWorkloadNames())
        EXPECT_NO_THROW(validateWorkloadName(name, "test"));
}

TEST(Frontend, RegisteredNamesIncludeFamilies)
{
    auto names = registeredWorkloadNames();
    EXPECT_EQ(names.size(), 19u); // paper's 16 + three families
    for (const auto &family : familyWorkloadNames()) {
        EXPECT_NE(std::find(names.begin(), names.end(), family),
                  names.end())
            << family;
    }
}

TEST(Frontend, LoadExternTraceReportsMissingAndBadFiles)
{
    auto missing = loadExternTrace("/nonexistent/path.trace");
    ASSERT_FALSE(missing->ok());
    EXPECT_NE(missing->error.find("cannot read"), std::string::npos);

    fs::path bad = tempFile("bad.trace", "0x40 READ oops\n");
    auto parsed = loadExternTrace(bad.string());
    ASSERT_FALSE(parsed->ok());
    EXPECT_NE(parsed->error.find("bad cycle"), std::string::npos);

    // The loader memoizes: the same path returns the cached parse
    // (pointer identity).
    EXPECT_EQ(parsed.get(), loadExternTrace(bad.string()).get());
}

// ---------------------------------------------------------------
// End to end: the committed fixture through the full System
// ---------------------------------------------------------------

ExperimentConfig
fixtureConfig(const fs::path &outDir)
{
    ExperimentConfig cfg;
    cfg.warmupInstr = 30'000;
    cfg.measureInstr = 10'000;
    cfg.cacheScale = 1.0 / 16.0;
    cfg.statsJsonDir = outDir.string();
    cfg.system.frontend.externFootprintPages = 128;
    return cfg;
}

TEST(FrontendEndToEnd, MiniFixtureRunsWithProvenanceAndByteIdentity)
{
    const std::string workload = "trace:" + miniTrace.string();
    const fs::path outA =
        fs::path(::testing::TempDir()) / "ladder_ext_a";
    const fs::path outB =
        fs::path(::testing::TempDir()) / "ladder_ext_b";
    fs::remove_all(outA);
    fs::remove_all(outB);

    SimResult result = runOne(SchemeKind::LadderHybrid, workload,
                              fixtureConfig(outA));
    EXPECT_GT(result.ipc, 0.0);
    EXPECT_GT(result.instructions, 0u);

    const std::string cell =
        runDirName(SchemeKind::LadderHybrid, workload);
    std::string statsA = slurp(outA / cell / "stats.json");
    ASSERT_FALSE(statsA.empty());

    // Manifest provenance: path, resolved format, record count, and
    // the CRC of the raw bytes.
    JsonValue doc = parseJson(statsA);
    ASSERT_TRUE(doc.isObject());
    const JsonValue &manifest = doc.at("manifest");
    ASSERT_TRUE(manifest.has("workload_trace_path"));
    EXPECT_EQ(manifest.at("workload_trace_path").string,
              miniTrace.string());
    EXPECT_EQ(manifest.at("workload_trace_format").string,
              "dramsim3");
    EXPECT_DOUBLE_EQ(manifest.at("workload_trace_records").number,
                     1024.0);
    const std::string bytes = slurp(miniTrace);
    EXPECT_DOUBLE_EQ(manifest.at("workload_trace_crc32").number,
                     double(crc32(bytes.data(), bytes.size())));

    // Repeat run => byte-identical stats.
    runOne(SchemeKind::LadderHybrid, workload, fixtureConfig(outB));
    EXPECT_EQ(statsA, slurp(outB / cell / "stats.json"));

    fs::remove_all(outA);
    fs::remove_all(outB);
}

TEST(FrontendEndToEnd, CommittedBin2FixtureReplays)
{
    const fs::path bin2 = fs::path(LADDER_DATA_DIR) / "mini_ctrl.bin2";
    auto parsed = loadExternTrace(bin2.string());
    ASSERT_TRUE(parsed->ok()) << parsed->error;
    EXPECT_EQ(parsed->format, ExternTraceFormat::Bin2);
    ASSERT_GT(parsed->records.size(), 1000u);
    // The controller recording carries real LRS counts, so Auto
    // content mode reconstructs write payloads from them.
    bool anyWriteWithLrs = false;
    for (const ExternRecord &r : parsed->records)
        anyWriteWithLrs |= r.isWrite && r.lrsCount != 0xffff;
    EXPECT_TRUE(anyWriteWithLrs);

    const std::string workload = "trace:" + bin2.string();
    const fs::path out =
        fs::path(::testing::TempDir()) / "ladder_ext_bin2";
    fs::remove_all(out);
    SimResult result = runOne(SchemeKind::LadderHybrid, workload,
                              fixtureConfig(out));
    EXPECT_GT(result.ipc, 0.0);
    JsonValue doc = parseJson(
        slurp(out / runDirName(SchemeKind::LadderHybrid, workload) /
              "stats.json"));
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("manifest").at("workload_trace_format").string,
              "bin2");
    fs::remove_all(out);
}

TEST(FrontendEndToEnd, SweepBytesIdenticalAtAnyJobs)
{
    const std::string traceName = "trace:" + miniTrace.string();
    const std::vector<std::string> workloads{traceName, "adv-lrs",
                                             "kv-log"};
    const std::vector<SchemeKind> schemes{SchemeKind::Baseline,
                                          SchemeKind::LadderHybrid};
    std::vector<std::string> dumps;
    for (unsigned jobs : {1u, 2u}) {
        const fs::path out =
            fs::path(::testing::TempDir()) /
            ("ladder_ext_jobs" + std::to_string(jobs));
        fs::remove_all(out);
        ExperimentConfig cfg = fixtureConfig(out);
        cfg.warmupInstr = 10'000;
        cfg.measureInstr = 4'000;
        cfg.jobs = jobs;
        runMatrixParallel(schemes, workloads, cfg);
        std::string dump = slurp(out / "sweep.json");
        for (const auto &workload : workloads)
            for (SchemeKind scheme : schemes)
                dump += slurp(out / runDirName(scheme, workload) /
                              "stats.json");
        ASSERT_FALSE(dump.empty());
        dumps.push_back(std::move(dump));
        fs::remove_all(out);
    }
    EXPECT_EQ(dumps[0], dumps[1])
        << "sweep outputs depend on the job count";
}

} // namespace
} // namespace ladder
