/**
 * @file
 * End-to-end tests for the causal latency-attribution pipeline: the
 * component-sum property across all nine schemes (the controller's
 * always-on exact-sum assert panics the run on any violation, so
 * completing these sweeps *is* the proof), per-component invariants
 * recovered from the written traces, the attribution-on vs -off byte
 * differential at the export layer, and the `ladder_blame` CLI's
 * table/diff output with its 0/1/2 exit contract.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "ctrl/trace_reader.hh"
#include "schemes/factory.hh"
#include "sim/blame_query.hh"
#include "sim/experiment.hh"
#include "sim/stats_export.hh"

namespace fs = std::filesystem;

namespace ladder
{
namespace
{

ExperimentConfig
attrConfig(const std::string &traceDir)
{
    ExperimentConfig cfg;
    cfg.warmupInstr = 60'000;
    cfg.measureInstr = 40'000;
    cfg.cacheScale = 1.0 / 16.0;
    cfg.traceOutDir = traceDir;
    cfg.traceFormat = "csv";
    cfg.system.controller.attribution = true;
    return cfg;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

TEST(Attribution, ComponentInvariantsHoldAcrossAllNineSchemes)
{
    fs::path base =
        fs::path(::testing::TempDir()) / "ladder_attr_schemes";
    fs::remove_all(base);
    ExperimentConfig cfg = attrConfig((base / "trace").string());
    const Tick rcd = nsToTicks(cfg.system.controller.tRcdNs);

    for (SchemeKind kind : allSchemeKinds()) {
        // Any exact-sum violation panics inside the controller's
        // attributeDispatch, aborting this run.
        runOne(kind, "lbm", cfg);

        TraceReader reader;
        fs::path trace =
            base / "trace" / runDirName(kind, "lbm") / "trace.csv";
        ASSERT_TRUE(reader.open(trace.string()))
            << trace << ": " << reader.error();
        EXPECT_TRUE(reader.attribution());
        CtrlTraceRecord rec;
        std::uint64_t writes = 0;
        while (reader.next(rec)) {
            if (rec.kind != CtrlTraceRecord::Kind::Write)
                continue;
            ++writes;
            const std::string at = schemeKindName(kind) +
                                   " write @" +
                                   std::to_string(rec.tick);
            // Wait-side components are stall durations: never
            // negative, and bank stall cannot exceed the whole wait.
            EXPECT_GE(rec.attr.depTicks, 0) << at;
            EXPECT_GE(rec.attr.queueTicks, 0) << at;
            EXPECT_GE(rec.attr.bankTicks, 0) << at;
            // Activation is the configured tRCD, exactly.
            EXPECT_EQ(static_cast<Tick>(rec.attr.rcdTicks), rcd)
                << at;
            // Latency-side components telescope to the decided tWR;
            // the trace stores tWR as a float, so allow the 1-tick
            // round-off of nsToTicks(float) vs nsToTicks(double).
            const std::int64_t latencySide =
                std::int64_t{rec.attr.baseTicks} +
                rec.attr.locationTicks + rec.attr.contentTicks +
                rec.attr.schemeTicks;
            const std::int64_t twr = static_cast<std::int64_t>(
                nsToTicks(static_cast<double>(rec.latencyNs)));
            EXPECT_LE(latencySide > twr ? latencySide - twr
                                        : twr - latencySide,
                      1)
                << at << " latencySide=" << latencySide
                << " twr=" << twr;
            // The best-case floor is a real latency.
            EXPECT_GT(rec.attr.baseTicks, 0) << at;
        }
        EXPECT_TRUE(reader.ok()) << reader.error();
        EXPECT_GT(writes, 0u)
            << schemeKindName(kind) << ": property test is vacuous";
    }
    fs::remove_all(base);
}

TEST(Attribution, OnVsOffTraceByteDifferential)
{
    fs::path base =
        fs::path(::testing::TempDir()) / "ladder_attr_diff";
    fs::remove_all(base);

    ExperimentConfig on = attrConfig((base / "on").string());
    ExperimentConfig off = attrConfig((base / "off").string());
    off.system.controller.attribution = false;
    runOne(SchemeKind::LadderEst, "lbm", on);
    runOne(SchemeKind::LadderEst, "lbm", off);

    const std::string run =
        runDirName(SchemeKind::LadderEst, "lbm");
    std::istringstream onCsv(
        slurp(base / "on" / run / "trace.csv"));
    std::istringstream offCsv(
        slurp(base / "off" / run / "trace.csv"));

    // Same simulation, one optional block: every attribution row is
    // its attribution-off counterpart plus exactly the blame columns,
    // so stripping them recovers the off trace byte-for-byte.
    std::string onLine, offLine;
    std::size_t line = 0;
    while (std::getline(offCsv, offLine)) {
        ASSERT_TRUE(std::getline(onCsv, onLine)) << "line " << line;
        if (line == 0) {
            EXPECT_EQ(onLine.rfind(",scheme_ticks"),
                      onLine.size() - 13);
        } else {
            ASSERT_GT(onLine.size(), offLine.size());
            EXPECT_EQ(onLine.substr(0, offLine.size()), offLine)
                << "line " << line;
            EXPECT_EQ(onLine[offLine.size()], ',') << "line " << line;
        }
        ++line;
    }
    EXPECT_FALSE(std::getline(onCsv, onLine));
    EXPECT_GT(line, 1u);
    fs::remove_all(base);
}

TEST(Attribution, LadderBlameTableDiffAndExitContract)
{
    fs::path base =
        fs::path(::testing::TempDir()) / "ladder_attr_blame";
    fs::remove_all(base);

    ExperimentConfig cfg = attrConfig((base / "a" / "trace").string());
    runOne(SchemeKind::LadderEst, "lbm", cfg);
    // Injected blame shift: doubling tRCD doubles exactly the rcd
    // component's mean, which a 50% threshold must flag.
    ExperimentConfig shifted =
        attrConfig((base / "b" / "trace").string());
    shifted.system.controller.tRcdNs *= 2.0;
    runOne(SchemeKind::LadderEst, "lbm", shifted);
    // And a blame-free trace for the exit-2 load error.
    ExperimentConfig plain =
        attrConfig((base / "plain" / "trace").string());
    plain.system.controller.attribution = false;
    runOne(SchemeKind::LadderEst, "lbm", plain);

    const std::string a = (base / "a" / "trace").string();
    const std::string b = (base / "b" / "trace").string();

    // Table mode: exit 0 and one row per component, in csv too.
    const std::vector<std::string> components = {
        "dep", "queue", "bank", "rcd", "base", "location", "content",
        "scheme"};
    std::ostringstream out, err;
    EXPECT_EQ(ladderBlameMain({a}, out, err), 0) << err.str();
    for (const std::string &component : components)
        EXPECT_NE(out.str().find(component), std::string::npos)
            << out.str();
    out.str("");
    EXPECT_EQ(ladderBlameMain({a, "format=csv"}, out, err), 0);
    std::istringstream csv(out.str());
    std::string line;
    ASSERT_TRUE(std::getline(csv, line));
    EXPECT_EQ(line,
              "run,component,p50_ns,p99_ns,max_ns,mean_ns,share_pct");
    // Every run lists the components in schema order, and its shares
    // sum to 100% up to rounding.
    std::map<std::string, std::vector<std::string>> runComponents;
    std::map<std::string, double> runShare;
    while (std::getline(csv, line)) {
        std::vector<std::string> fields;
        std::istringstream row(line);
        for (std::string field; std::getline(row, field, ',');)
            fields.push_back(field);
        ASSERT_EQ(fields.size(), 7u) << line;
        runComponents[fields[0]].push_back(fields[1]);
        runShare[fields[0]] += std::stod(fields[6]);
    }
    EXPECT_EQ(runComponents.size(), 1u);
    for (const auto &[run, got] : runComponents) {
        EXPECT_EQ(got, components) << run;
        EXPECT_NEAR(runShare[run], 100.0, 1.0) << run;
    }

    // Diff: self-diff is clean (0); the injected shift flags (1).
    out.str("");
    EXPECT_EQ(ladderBlameMain({"diff", a, a}, out, err), 0)
        << out.str();
    out.str("");
    EXPECT_EQ(
        ladderBlameMain({"diff", a, b, "threshold=0.5"}, out, err),
        1)
        << out.str();
    EXPECT_NE(out.str().find("BLAME SHIFT"), std::string::npos);

    // Usage and load errors: exit 2.
    out.str("");
    EXPECT_EQ(ladderBlameMain({}, out, err), 2);
    EXPECT_EQ(ladderBlameMain({"diff", a}, out, err), 2);
    EXPECT_EQ(
        ladderBlameMain({(base / "missing").string()}, out, err), 2);
    EXPECT_EQ(ladderBlameMain({"bogus=1", a}, out, err), 2);
    err.str("");
    EXPECT_EQ(
        ladderBlameMain({(base / "plain" / "trace").string()}, out,
                        err),
        2);
    EXPECT_NE(err.str().find("attribution"), std::string::npos)
        << err.str();
    fs::remove_all(base);
}

TEST(Attribution, ExportsByteIdenticalAcrossJobs)
{
    std::vector<SchemeKind> schemes = {SchemeKind::SplitReset,
                                       SchemeKind::LadderHybrid};
    std::vector<std::string> workloads = {"lbm"};
    fs::path base =
        fs::path(::testing::TempDir()) / "ladder_attr_jobs";
    fs::remove_all(base);

    auto sweep = [&](unsigned jobs, const fs::path &dir) {
        ExperimentConfig cfg = attrConfig((dir / "trace").string());
        cfg.jobs = jobs;
        cfg.traceFormat = "bin2";
        cfg.traceChunkRecords = 64;
        runMatrixParallel(schemes, workloads, cfg);
    };
    sweep(1, base / "j1");
    sweep(8, base / "j8");

    for (SchemeKind kind : schemes) {
        const fs::path rel =
            fs::path("trace") / runDirName(kind, "lbm") /
            "trace.bin";
        const std::string reference = slurp(base / "j1" / rel);
        ASSERT_FALSE(reference.empty()) << rel;
        EXPECT_EQ(reference, slurp(base / "j8" / rel))
            << rel << " differs between jobs=1 and jobs=8";
        TraceReader reader;
        ASSERT_TRUE(reader.openBuffer(reference)) << reader.error();
        EXPECT_TRUE(reader.attribution());
    }
    fs::remove_all(base);
}

} // namespace
} // namespace ladder
