/**
 * @file
 * End-to-end tests for the causal latency-attribution pipeline: the
 * component-sum property across all nine schemes (the controller's
 * always-on exact-sum assert panics the run on any violation, so
 * completing these sweeps *is* the proof), per-component invariants
 * recovered from the written traces, the attribution-on vs -off byte
 * differential at the export layer, and `ladder_query` over the
 * traces: the flattened blame.* profile, the blame diff and the 0/1/2
 * exit contract.
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
#include "sim/experiment.hh"
#include "sim/stats_export.hh"
#include "sim/stats_query.hh"

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

TEST(Attribution, LadderQueryBlameTableDiffAndExitContract)
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
    const std::string run = runDirName(SchemeKind::LadderEst, "lbm");

    // Table mode: exit 0 and every component's rows, in csv too.
    const std::vector<std::string> components = {
        "dep", "queue", "bank", "rcd", "base", "location", "content",
        "scheme"};
    std::ostringstream out, err;
    EXPECT_EQ(ladderQueryMain({a}, out, err), 0) << err.str();
    for (const std::string &component : components)
        EXPECT_NE(out.str().find(run + ".blame." + component + "."),
                  std::string::npos)
            << out.str();
    out.str("");
    EXPECT_EQ(ladderQueryMain({"*blame.*", a, "format=csv"}, out, err),
              0);
    std::istringstream csv(out.str());
    std::string line;
    ASSERT_TRUE(std::getline(csv, line));
    EXPECT_EQ(line, "stat," + a);
    // Rows are <run>.blame.<component>.<field>,<value>: every run
    // lists all five fields of every component plus its write count,
    // and its shares sum to 100% up to rounding.
    std::map<std::string, std::map<std::string, int>> runFields;
    std::map<std::string, double> runShare;
    std::map<std::string, double> runWrites;
    while (std::getline(csv, line)) {
        const std::size_t comma = line.find(',');
        const std::size_t blame = line.find(".blame.");
        ASSERT_NE(comma, std::string::npos) << line;
        ASSERT_NE(blame, std::string::npos) << line;
        const std::string runName = line.substr(0, blame);
        const std::string rest =
            line.substr(blame + 7, comma - blame - 7);
        const double value = std::stod(line.substr(comma + 1));
        if (rest == "writes") {
            runWrites[runName] = value;
            continue;
        }
        const std::size_t dot = rest.find('.');
        ASSERT_NE(dot, std::string::npos) << line;
        ++runFields[runName][rest.substr(0, dot)];
        if (rest.substr(dot + 1) == "share_pct")
            runShare[runName] += value;
    }
    ASSERT_EQ(runFields.size(), 1u);
    for (const auto &[name, fields] : runFields) {
        EXPECT_EQ(name, run);
        EXPECT_GT(runWrites[name], 0.0) << name;
        ASSERT_EQ(fields.size(), components.size()) << name;
        for (const std::string &component : components)
            EXPECT_EQ(fields.at(component), 5) << name << component;
        EXPECT_NEAR(runShare[name], 100.0, 1.0) << name;
    }

    // Diff: self-diff is clean (0); the injected shift flags (1),
    // on the rcd component.
    out.str("");
    EXPECT_EQ(ladderQueryMain({"diff", a, a}, out, err), 0)
        << out.str();
    out.str("");
    EXPECT_EQ(ladderQueryMain({"diff", "*blame.*.mean_ns", a, b,
                               "threshold=0.5"},
                              out, err),
              1)
        << out.str();
    std::istringstream report(out.str());
    bool rcdFlagged = false;
    while (std::getline(report, line))
        if (line.find(".blame.rcd.mean_ns") != std::string::npos)
            rcdFlagged =
                line.find("REGRESSION") != std::string::npos;
    EXPECT_TRUE(rcdFlagged) << out.str();

    // Usage and load errors: exit 2.
    out.str("");
    EXPECT_EQ(ladderQueryMain({}, out, err), 2);
    EXPECT_EQ(ladderQueryMain({"diff", a}, out, err), 2);
    EXPECT_EQ(
        ladderQueryMain({a, (base / "missing").string()}, out, err),
        2);
    err.str("");
    EXPECT_EQ(
        ladderQueryMain({(base / "plain" / "trace").string()}, out,
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
