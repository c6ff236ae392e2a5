/**
 * @file
 * Tests for the declarative configuration spine: the typed parameter
 * registry, the layered resolver (defaults < config file < sweep
 * params < CLI), strict rejection of unknown/malformed/out-of-range
 * keys, sweep-spec parsing, dump/reload round-trips, byte-exact
 * equivalence between file-driven and CLI-driven runs at any job
 * count, and the generated parameter table in EXPERIMENTS.md.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/param_registry.hh"
#include "sim/config_resolve.hh"
#include "sim/experiment.hh"

#ifndef LADDER_SOURCE_DIR
#error "LADDER_SOURCE_DIR must point at the repository root"
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

ResolvedExperiment
resolve(std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    const ExperimentConfig defaults;
    return resolveExperiment(static_cast<int>(args.size()),
                             args.data(), defaults);
}

std::string
errorOf(std::vector<const char *> args)
{
    try {
        resolve(std::move(args));
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

fs::path
tempFile(const std::string &name, const std::string &content)
{
    fs::path dir = fs::path(::testing::TempDir()) / "ladder_registry";
    fs::create_directories(dir);
    fs::path path = dir / name;
    std::ofstream os(path, std::ios::binary);
    os << content;
    return path;
}

std::string
dumpString(const ExperimentConfig &cfg)
{
    std::ostringstream os;
    dumpEffectiveConfig(cfg, os);
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

const fs::path configsDir =
    fs::path(LADDER_SOURCE_DIR) / "examples" / "configs";

TEST(ParamRegistry, DumpIsLoadableAndRoundTrips)
{
    ExperimentConfig defaults;
    std::string first = dumpString(defaults);

    // The dump must be valid JSON...
    JsonValue doc = parseJson(first);
    ASSERT_TRUE(doc.isObject());
    // ...and applying it back onto fresh defaults must be the
    // identity: same keys, same values, same bytes.
    ExperimentConfig reloaded;
    experimentRegistry().applyJson(reloaded, doc, "round-trip");
    EXPECT_EQ(first, dumpString(reloaded));

    // A dump of a layered config (file plus CLI) reloaded through
    // config= is a fixed point: dumping it again gives the same bytes.
    const std::string quick =
        "config=" + (configsDir / "ci-quick.json").string();
    ResolvedExperiment fromFile =
        resolve({quick.c_str(), "granularity=16"});
    std::string layered = dumpString(fromFile.config);
    ASSERT_TRUE(parseJson(layered).isObject());
    std::string dumpArg =
        "config=" + tempFile("dump1.json", layered).string();
    ResolvedExperiment fromDump = resolve({dumpArg.c_str()});
    EXPECT_EQ(layered, dumpString(fromDump.config));
}

TEST(ParamRegistry, PrecedenceFileThenCli)
{
    fs::path file = tempFile("precedence.json",
                             "{\"measure\": 111, \"warmup\": 222}\n");
    std::string configArg = "config=" + file.string();
    ResolvedExperiment r =
        resolve({configArg.c_str(), "measure=333"});
    // CLI beats the file; the file beats the compiled default.
    EXPECT_EQ(r.config.measureInstr, 333u);
    EXPECT_EQ(r.config.warmupInstr, 222u);
    EXPECT_EQ(r.configFile, file.string());
}

TEST(ParamRegistry, PrecedenceSweepParamsBetweenFileAndCli)
{
    fs::path file = tempFile("layer-config.json",
                             "{\"measure\": 100, \"seed\": 5}\n");
    fs::path sweep = tempFile(
        "layer-sweep.json",
        "{\"params\": {\"measure\": 200, \"granularity\": 16}}\n");
    std::string configArg = "config=" + file.string();
    std::string sweepArg = "sweep=" + sweep.string();
    ResolvedExperiment r = resolve(
        {configArg.c_str(), sweepArg.c_str(), "measure=300"});
    EXPECT_EQ(r.config.measureInstr, 300u); // CLI wins
    EXPECT_EQ(r.config.system.tableGranularity, 16u); // sweep beats file
    EXPECT_EQ(r.config.seed, 5u); // file beats defaults
}

TEST(ParamRegistry, CliArgvOrderIsLastWins)
{
    ResolvedExperiment r = resolve({"measure=10", "measure=20"});
    EXPECT_EQ(r.config.measureInstr, 20u);
}

TEST(ParamRegistry, UnknownCliKeySuggestsNearMiss)
{
    std::string what = errorOf({"measrue=5"});
    EXPECT_NE(what.find("unknown config key 'measrue'"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("did you mean 'measure'?"),
              std::string::npos)
        << what;

    // Retired keys are unknown, not silently accepted.
    for (const char *arg :
         {"latency.surface=false", "latency.surface-check=true",
          "latency.error-budget=0.1"}) {
        EXPECT_NE(errorOf({arg}).find("unknown config key"),
                  std::string::npos)
            << arg;
    }
}

TEST(ParamRegistry, ApplyArgsSetsKeysAndReturnsPositionals)
{
    struct Opts
    {
        std::string mode = "dump";
        std::int64_t limit = -1;
    };
    ParamRegistry<Opts> reg;
    reg.addChoice(
        "mode", [](Opts &o) -> std::string & { return o.mode; },
        "Output mode", {"dump", "summary"});
    reg.addInt<std::int64_t>(
        "limit", [](Opts &o) -> std::int64_t & { return o.limit; },
        "Record limit", -1, 100);

    Opts opts;
    const char *argv[] = {"prog", "mode=summary", "trace.bin",
                          "limit=5", "limit=7", "=x"};
    EXPECT_EQ(reg.applyArgs(opts, 6, argv),
              (std::vector<std::string>{"trace.bin", "=x"}));
    EXPECT_EQ(opts.mode, "summary");
    EXPECT_EQ(opts.limit, 7); // argv order: last wins

    const auto fails = [&](const char *arg) {
        const char *args[] = {"prog", arg};
        Opts o;
        try {
            reg.applyArgs(o, 2, args);
        } catch (const std::runtime_error &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    EXPECT_NE(fails("mde=dump").find("did you mean 'mode'?"),
              std::string::npos);
    EXPECT_NE(fails("limit=101").find("out of range"),
              std::string::npos);
    EXPECT_NE(fails("mode=chunks").find("must be one of"),
              std::string::npos);
}

TEST(ParamRegistry, NegativeValueIntoUnsignedIsRejected)
{
    // The old parseBenchArgs cast getInt into unsigned fields, so
    // measure=-1 silently wrapped to ~1.8e19 instructions.
    std::string what = errorOf({"measure=-1"});
    EXPECT_NE(what.find("measure=-1"), std::string::npos) << what;
    EXPECT_NE(what.find("unsigned"), std::string::npos) << what;

    EXPECT_NE(errorOf({"jobs=-3"}).find("unsigned"),
              std::string::npos);
    EXPECT_NE(errorOf({"trace-chunk=-1"}).find("unsigned"),
              std::string::npos);
}

TEST(ParamRegistry, OutOfRangeIsDiagnosedWithDoc)
{
    std::string what = errorOf({"ctrl.drain-high=1.5"});
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
    // The doc string rides along so the user learns what the knob is.
    EXPECT_NE(what.find("drain"), std::string::npos) << what;

    EXPECT_NE(errorOf({"granularity=0"}).find("out of range"),
              std::string::npos);
    EXPECT_NE(errorOf({"core.rob=4"}).find("out of range"),
              std::string::npos);

    // A size the cache cannot split into whole sets is rejected at
    // resolve, naming the key, instead of panicking in Cache later.
    what = errorOf({"cache.l3-bytes=100000"});
    EXPECT_NE(what.find("cache.l3-bytes=100000"), std::string::npos)
        << what;
    EXPECT_NE(what.find("cache.l3-ways=16"), std::string::npos) << what;

    // So is a memory geometry the address map and store cannot hold
    // (it used to corrupt memory or panic mid-run).
    for (const char *arg : {"geom.mat-groups=2", "geom.mat-groups=6"}) {
        what = errorOf({arg});
        EXPECT_NE(what.find(arg), std::string::npos) << what;
        EXPECT_NE(what.find("multiple of 4"), std::string::npos) << what;
    }
    // xbar.rows alone sizes a mat, within what the circuit supports;
    // the retired duplicate and pinned mat keys are unknown, so no
    // crossbar can disagree with the mats the address map fills. The
    // retired extern.format is unknown too: a trace's own magic picks
    // its parser. So is scheme.shifting: the LADDER-Est-noshift
    // scheme is the unshifted design.
    for (const char *arg : {"xbar.rows=4", "xbar.rows=4097"}) {
        what = errorOf({arg});
        EXPECT_NE(what.find(arg), std::string::npos) << what;
        EXPECT_NE(what.find("out of range"), std::string::npos) << what;
    }
    // extern.content=lrs is not a mode: auto already tracks a
    // record's LRS count when it has one.
    what = errorOf({"extern.content=lrs"});
    EXPECT_NE(what.find("extern.content"), std::string::npos) << what;
    EXPECT_NE(what.find("must be one of"), std::string::npos) << what;
    for (const char *key : {"geom.mat-rows", "geom.mat-cols", "xbar.cols",
                            "geom.chips", "extern.format",
                            "scheme.shifting"}) {
        const std::string arg = std::string(key) + "=512";
        what = errorOf({arg.c_str()});
        EXPECT_NE(what.find(std::string("unknown config key '") + key +
                            "'"),
                  std::string::npos)
            << what;
    }
}

// LADDER-Hybrid with no 1-bit-counter rows is a legal design point
// (fig14's ablation sweeps it), so the lower bound admits 0.
TEST(ParamRegistry, HybridLowRowsAdmitsZero)
{
    EXPECT_EQ(resolve({"scheme.hybrid-low-rows=0"})
                  .config.system.schemeOptions.hybridLowRows,
              0u);
    EXPECT_NE(errorOf({"scheme.hybrid-low-rows=4097"})
                  .find("out of range"),
              std::string::npos);
}

TEST(ParamRegistry, NonNumericValueIsRejected)
{
    EXPECT_NE(errorOf({"measure=abc"}).find("not an unsigned"),
              std::string::npos);
    EXPECT_NE(errorOf({"cache-scale=fast"}).find("not a number"),
              std::string::npos);
    EXPECT_NE(errorOf({"trace-stream=maybe"}).find("not a boolean"),
              std::string::npos);
}

TEST(ParamRegistry, BadChoiceSuggests)
{
    for (const char *arg : {"trace-format=binx", "trace-format=bin"}) {
        std::string what = errorOf({arg});
        EXPECT_NE(what.find("{csv|bin2}"), std::string::npos) << what;
    }

    std::string what = errorOf({"fnw-mode=clasical"});
    EXPECT_NE(what.find("did you mean 'classical'?"),
              std::string::npos)
        << what;
}

TEST(ParamRegistry, EnumParsesAllMappedNames)
{
    EXPECT_EQ(resolve({"fnw-mode=off"}).config.system.controller.fnwMode,
              FnwMode::Off);
    EXPECT_EQ(
        resolve({"fnw-mode=constrained"}).config.system.controller.fnwMode,
        FnwMode::Constrained);
}

TEST(ParamRegistry, MalformedConfigFileNamesTheFile)
{
    fs::path file = tempFile("broken.json", "{ nope\n");
    std::string configArg = "config=" + file.string();
    std::string what = errorOf({configArg.c_str()});
    EXPECT_NE(what.find("not valid JSON"), std::string::npos) << what;
    EXPECT_NE(what.find("broken.json"), std::string::npos) << what;
}

TEST(ParamRegistry, MissingConfigFileIsFatal)
{
    EXPECT_NE(errorOf({"config=/nonexistent/nope.json"})
                  .find("cannot read"),
              std::string::npos);
}

TEST(ParamRegistry, UnknownKeyInConfigFileNamesTheFile)
{
    fs::path file = tempFile("typo.json", "{\"measrue\": 5}\n");
    std::string configArg = "config=" + file.string();
    std::string what = errorOf({configArg.c_str()});
    EXPECT_NE(what.find("typo.json"), std::string::npos) << what;
    EXPECT_NE(what.find("did you mean 'measure'?"), std::string::npos)
        << what;
}

TEST(ParamRegistry, ConfigFileMustBeFlatObject)
{
    fs::path file = tempFile("array.json", "[1, 2]\n");
    std::string configArg = "config=" + file.string();
    EXPECT_NE(errorOf({configArg.c_str()}).find("flat JSON object"),
              std::string::npos);
}

TEST(ParamRegistry, SweepSpecSelectsGridAndParams)
{
    fs::path sweep = tempFile(
        "grid.json",
        "{\"schemes\": [\"baseline\", \"LADDER-Hybrid\"],\n"
        " \"workloads\": [\"lbm\", \"astar\"],\n"
        " \"params\": {\"measure\": 4000}}\n");
    std::string sweepArg = "sweep=" + sweep.string();
    ResolvedExperiment r = resolve({sweepArg.c_str()});
    ASSERT_TRUE(r.schemesExplicit);
    ASSERT_TRUE(r.workloadsExplicit);
    EXPECT_EQ(r.schemes,
              (std::vector<SchemeKind>{SchemeKind::Baseline,
                                       SchemeKind::LadderHybrid}));
    EXPECT_EQ(r.workloads,
              (std::vector<std::string>{"lbm", "astar"}));
    EXPECT_EQ(r.config.measureInstr, 4000u);
}

TEST(ParamRegistry, SweepSpecUnknownTopLevelKeySuggests)
{
    fs::path sweep =
        tempFile("badkey.json", "{\"scheems\": [\"baseline\"]}\n");
    std::string sweepArg = "sweep=" + sweep.string();
    std::string what = errorOf({sweepArg.c_str()});
    EXPECT_NE(what.find("unknown key 'scheems'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("did you mean 'schemes'?"), std::string::npos)
        << what;
}

TEST(ParamRegistry, SweepSpecRejectsNonStringLists)
{
    fs::path sweep =
        tempFile("badlist.json", "{\"workloads\": [1, 2]}\n");
    std::string sweepArg = "sweep=" + sweep.string();
    EXPECT_NE(
        errorOf({sweepArg.c_str()}).find("array of strings"),
        std::string::npos);
}

TEST(ParamRegistry, SweepSpecIncludeLayersBeforeIncluder)
{
    tempFile("inc_base.json",
             "{\"schemes\": [\"baseline\"],\n"
             " \"params\": {\"measure\": 1000, \"warmup\": 500}}\n");
    // A relative include= resolves against the including file's
    // directory; the includer's own keys win where they overlap.
    fs::path top = tempFile(
        "inc_top.json",
        "{\"include\": \"inc_base.json\",\n"
        " \"workloads\": [\"lbm\"],\n"
        " \"params\": {\"measure\": 4000}}\n");
    std::string sweepArg = "sweep=" + top.string();
    ResolvedExperiment r = resolve({sweepArg.c_str()});
    EXPECT_EQ(r.schemes,
              (std::vector<SchemeKind>{SchemeKind::Baseline}));
    EXPECT_EQ(r.workloads, (std::vector<std::string>{"lbm"}));
    EXPECT_EQ(r.config.measureInstr, 4000u); // includer overrides
    EXPECT_EQ(r.config.warmupInstr, 500u);   // included value kept
}

TEST(ParamRegistry, SweepSpecIncludeCycleIsFatal)
{
    fs::path a =
        tempFile("cyc_a.json", "{\"include\": \"cyc_b.json\"}\n");
    tempFile("cyc_b.json", "{\"include\": \"cyc_a.json\"}\n");
    std::string sweepArg = "sweep=" + a.string();
    std::string what = errorOf({sweepArg.c_str()});
    EXPECT_NE(what.find("include cycle"), std::string::npos) << what;
}

TEST(ParamRegistry, CliSelectionOverridesSweepSpec)
{
    fs::path sweep = tempFile(
        "grid2.json",
        "{\"schemes\": [\"baseline\", \"Oracle\"],"
        " \"workloads\": [\"lbm\"]}\n");
    std::string sweepArg = "sweep=" + sweep.string();
    ResolvedExperiment r =
        resolve({sweepArg.c_str(), "scheme=BLP", "workload=astar"});
    EXPECT_EQ(r.schemes, (std::vector<SchemeKind>{SchemeKind::Blp}));
    EXPECT_EQ(r.workloads, (std::vector<std::string>{"astar"}));
}

TEST(ParamRegistry, WorkloadAndSchemeValidationSuggests)
{
    EXPECT_NE(errorOf({"workload=lbmm"}).find("did you mean 'lbm'?"),
              std::string::npos);
    EXPECT_NE(errorOf({"scheme=LADDER-Hybird"})
                  .find("did you mean 'LADDER-Hybrid'?"),
              std::string::npos);
    EXPECT_NE(errorOf({"workloads="}).find("empty workload selection"),
              std::string::npos);
}

TEST(ParamRegistry, CsvSelectionsParse)
{
    ResolvedExperiment r = resolve(
        {"schemes=baseline,BLP,Oracle", "workloads=mix-1,mix-2"});
    EXPECT_EQ(r.schemes,
              (std::vector<SchemeKind>{SchemeKind::Baseline,
                                       SchemeKind::Blp,
                                       SchemeKind::Oracle}));
    EXPECT_EQ(r.workloads,
              (std::vector<std::string>{"mix-1", "mix-2"}));
}

TEST(ParamRegistry, PositionalArgumentIsRejected)
{
    EXPECT_NE(errorOf({"oops"}).find("unexpected argument 'oops'"),
              std::string::npos);
}

TEST(ParamRegistry, DuplicateConfigOrSweepIsRejected)
{
    fs::path a = tempFile("a.json", "{}\n");
    fs::path b = tempFile("b.json", "{}\n");
    std::string argA = "config=" + a.string();
    std::string argB = "config=" + b.string();
    EXPECT_NE(errorOf({argA.c_str(), argB.c_str()})
                  .find("config= given twice"),
              std::string::npos);
}

TEST(ParamRegistry, DumpAndHelpFlagsAreRecognized)
{
    EXPECT_TRUE(resolve({"--dump-config"}).dumpRequested);
    EXPECT_TRUE(resolve({"--help-config"}).helpRequested);
    EXPECT_FALSE(resolve({}).dumpRequested);
}

TEST(ParamRegistry, HelpLinesSplitIntoKeyTypeDefault)
{
    // Every --help-config line splits on whitespace into a registered
    // key, its type and its default (the markdown table's default
    // column), even where a key is wider than the key column.
    const ParamRegistry<ExperimentConfig> &reg = experimentRegistry();
    const ExperimentConfig defaults = defaultExperimentConfig();
    std::ostringstream md;
    reg.helpMarkdown(md, defaults);
    std::map<std::string, std::string> defaultOf;
    std::istringstream rows(md.str());
    for (std::string row; std::getline(rows, row);) {
        if (row.rfind("| `", 0) != 0)
            continue;
        const std::size_t keyEnd = row.find("` | ");
        const std::size_t valueBegin = row.find(" | `", keyEnd) + 4;
        const std::size_t valueEnd = row.find("` | ", valueBegin);
        defaultOf[row.substr(3, keyEnd - 3)] =
            row.substr(valueBegin, valueEnd - valueBegin);
    }
    ASSERT_EQ(defaultOf.size(), reg.names().size());

    std::ostringstream help;
    reg.help(help, defaults);
    std::istringstream lines(help.str());
    std::size_t count = 0;
    for (std::string line; std::getline(lines, line); ++count) {
        std::istringstream fields(line);
        std::string key, type, value;
        fields >> key >> type >> value;
        ASSERT_TRUE(reg.has(key)) << line;
        EXPECT_TRUE(type == "bool" || type == "int" || type == "uint" ||
                    type == "double" || type == "string")
            << line;
        if (defaultOf[key] != "''") {
            EXPECT_EQ(value, defaultOf[key]) << line;
        }
    }
    EXPECT_EQ(count, reg.names().size());
}

TEST(ParamRegistry, ExperimentsTableMatchesRegistry)
{
    // The table between EXPERIMENTS.md's GENERATED PARAMS markers is
    // what `workload_sim --help-config=md` prints.
    const char *argv[] = {"workload_sim", "--help-config=md"};
    ResolvedExperiment r =
        resolveExperiment(2, argv, defaultExperimentConfig());
    ASSERT_TRUE(r.helpRequested);
    ASSERT_EQ(r.helpFormat, "md");
    std::ostringstream table;
    experimentRegistry().helpMarkdown(table, r.config);

    const std::string doc =
        slurp(fs::path(LADDER_SOURCE_DIR) / "EXPERIMENTS.md");
    const std::string begin = "<!-- BEGIN GENERATED PARAMS "
                              "(scripts/update_experiments_params.py) "
                              "-->\n";
    const std::size_t from = doc.find(begin);
    const std::size_t to = doc.find("<!-- END GENERATED PARAMS -->");
    ASSERT_NE(from, std::string::npos);
    ASSERT_NE(to, std::string::npos);
    ASSERT_LT(from, to);
    EXPECT_EQ(doc.substr(from + begin.size(), to - from - begin.size()),
              table.str())
        << "EXPERIMENTS.md parameter table is stale; run "
           "scripts/update_experiments_params.py";
}

TEST(ParamRegistry, ManifestScopeExcludesOutputAndVolatileKnobs)
{
    ExperimentConfig cfg;
    cfg.statsJsonDir = "/tmp/somewhere";
    cfg.jobs = 8;
    std::ostringstream os;
    JsonWriter json(os);
    experimentRegistry().dumpJson(
        cfg, json, ParamRegistry<ExperimentConfig>::Scope::Manifest);
    JsonValue doc = parseJson(os.str());
    ASSERT_TRUE(doc.isObject());
    // Output locations and parallelism cannot leak into manifests, or
    // byte-identity across output dirs and jobs= values would break.
    EXPECT_FALSE(doc.has("stats-json"));
    EXPECT_FALSE(doc.has("trace-out"));
    EXPECT_FALSE(doc.has("jobs"));
    EXPECT_FALSE(doc.has("volatile-manifest"));
    EXPECT_FALSE(doc.has("stats"));
    // Simulation-affecting parameters are all present.
    EXPECT_TRUE(doc.has("measure"));
    EXPECT_TRUE(doc.has("xbar.rows"));
    EXPECT_TRUE(doc.has("ctrl.drain-high"));
    EXPECT_TRUE(doc.has("wear.psi"));
}

TEST(ParamRegistry, PaperScaleSetterAppliesTable2)
{
    ResolvedExperiment r = resolve({"sys.paper-scale=true"});
    EXPECT_TRUE(r.config.system.paperScale);
    EXPECT_EQ(r.config.system.caches.l2.sizeBytes,
              std::size_t(4) * 1024 * 1024);
    EXPECT_EQ(r.config.system.caches.l3.sizeBytes,
              std::size_t(32) * 1024 * 1024);
    EXPECT_DOUBLE_EQ(r.config.system.workingSetScale, 8.0);

    // Later keys can still override individual fields.
    ResolvedExperiment r2 = resolve(
        {"sys.paper-scale=true", "cache.l3-bytes=16777216"});
    EXPECT_EQ(r2.config.system.caches.l3.sizeBytes,
              std::size_t(16) * 1024 * 1024);
}

TEST(ParamRegistry, SystemTemplateReachesEveryCell)
{
    ResolvedExperiment r = resolve(
        {"ctrl.write-queue=128", "geom.channels=4",
         "xbar.selected-cells=16"});
    SystemConfig sys =
        makeSystemConfig(SchemeKind::Baseline, "lbm", r.config);
    EXPECT_EQ(sys.controller.writeQueueEntries, 128u);
    EXPECT_EQ(sys.geometry.channels, 4u);
    EXPECT_EQ(sys.crossbar.selectedCells, 16u);

    // cache-scale rounds the scaled L2/L3 down to whole sets, so any
    // in-range scale builds a System.
    SystemConfig scaled = makeSystemConfig(
        SchemeKind::Baseline, "lbm", resolve({"cache-scale=0.01"}).config);
    EXPECT_EQ(scaled.caches.l3.sizeBytes %
                  (scaled.caches.l3.ways * lineBytes),
              0u);
    System system(scaled);
    EXPECT_EQ(system.coreCount(), 1u);
}

TEST(ParamRegistry, CommittedExampleConfigsResolve)
{
    std::string quick = "config=" + (configsDir / "ci-quick.json").string();
    ResolvedExperiment r = resolve({quick.c_str()});
    EXPECT_EQ(r.config.warmupInstr, 60000u);
    EXPECT_EQ(r.config.measureInstr, 40000u);
    EXPECT_EQ(r.config.system.epochCycles, 10000u);

    std::string paper =
        "config=" + (configsDir / "paper-table2.json").string();
    ResolvedExperiment p = resolve({paper.c_str()});
    EXPECT_TRUE(p.config.system.paperScale);
    EXPECT_EQ(p.config.measureInstr, 500000000u);

    std::string sweep = "sweep=" + (configsDir / "ci-sweep.json").string();
    ResolvedExperiment s = resolve({sweep.c_str()});
    EXPECT_EQ(s.schemes,
              (std::vector<SchemeKind>{SchemeKind::Baseline,
                                       SchemeKind::LadderHybrid}));
    EXPECT_EQ(s.workloads, (std::vector<std::string>{"lbm",
                                                     "astar"}));
    EXPECT_EQ(s.config.measureInstr, 40000u);
}

TEST(ParamRegistry, CommittedManifestsLoadAsConfigFiles)
{
    // Every committed export's resolved_config must load back the way
    // config= loads a file, so a key retired from the registry but
    // left in a golden or the behaviour-gate baseline fails here.
    const fs::path tests = fs::path(LADDER_SOURCE_DIR) / "tests";
    std::vector<fs::path> manifests = {
        tests / "baselines" / "perf-gate" / "sweep.json"};
    for (const auto &cell : fs::directory_iterator(tests / "golden"))
        if (cell.is_directory())
            manifests.push_back(cell.path() / "stats.json");
    ASSERT_GE(manifests.size(), 3u);
    for (const fs::path &path : manifests) {
        JsonValue doc = parseJson(slurp(path));
        ASSERT_TRUE(doc.has("resolved_config")) << path;
        ExperimentConfig cfg;
        try {
            experimentRegistry().applyJson(
                cfg, doc.at("resolved_config"), path.string());
        } catch (const std::runtime_error &e) {
            ADD_FAILURE() << e.what();
        }
    }
}

TEST(ParamRegistry, FileAndCliRunsAreByteIdenticalAtAnyJobs)
{
    ASSERT_TRUE(pinnedDescribe);
    const fs::path base =
        fs::path(::testing::TempDir()) / "ladder_registry_runs";
    fs::remove_all(base);

    // One grid, two spellings: everything in files vs everything on
    // the command line, at different jobs= values. The emitted
    // stats.json and sweep.json must agree byte for byte.
    fs::path spec = tempFile(
        "equiv-sweep.json",
        "{\"schemes\": [\"baseline\", \"LADDER-Hybrid\"],\n"
        " \"workloads\": [\"lbm\"],\n"
        " \"params\": {\"warmup\": 6000, \"measure\": 2000,\n"
        "              \"cache-scale\": 0.0625,\n"
        "              \"epoch-cycles\": 10000}}\n");
    std::string sweepArg = "sweep=" + spec.string();
    std::string statsA =
        "stats-json=" + (base / "files").string();
    ResolvedExperiment fromFiles =
        resolve({sweepArg.c_str(), statsA.c_str(), "jobs=1"});

    std::string statsB = "stats-json=" + (base / "cli").string();
    ResolvedExperiment fromCli = resolve(
        {"schemes=baseline,LADDER-Hybrid", "workloads=lbm",
         "warmup=6000", "measure=2000", "cache-scale=0.0625",
         "epoch-cycles=10000", statsB.c_str(), "jobs=2"});

    runMatrixParallel(fromFiles.schemes, fromFiles.workloads,
                      fromFiles.config);
    runMatrixParallel(fromCli.schemes, fromCli.workloads,
                      fromCli.config);

    for (const char *run : {"baseline__lbm", "LADDER-Hybrid__lbm"}) {
        std::string a =
            slurp(base / "files" / run / "stats.json");
        std::string b = slurp(base / "cli" / run / "stats.json");
        ASSERT_FALSE(a.empty()) << run;
        EXPECT_EQ(a, b) << run;
        // The embedded resolved_config block is present and carries
        // the layered values.
        JsonValue doc = parseJson(a);
        ASSERT_TRUE(doc.has("resolved_config")) << run;
        EXPECT_DOUBLE_EQ(
            doc.at("resolved_config").at("measure").number, 2000.0);
        EXPECT_DOUBLE_EQ(doc.at("schema_version").number, 2.0);
    }
    EXPECT_EQ(slurp(base / "files" / "sweep.json"),
              slurp(base / "cli" / "sweep.json"));

    fs::remove_all(base);
}

// ---------------------------------------------------------------
// Per-cell overrides ("cells" in sweep specs)
// ---------------------------------------------------------------

TEST(ParamRegistry, SweepCellsParseValidateAndStringify)
{
    fs::path sweep = tempFile(
        "cells.json",
        "{\"schemes\": [\"baseline\", \"LADDER-Hybrid\"],\n"
        " \"workloads\": [\"lbm\", \"kv-log\"],\n"
        " \"cells\": [\n"
        "  {\"scheme\": \"baseline\", \"workload\": \"lbm\",\n"
        "   \"params\": {\"epoch-cycles\": 5000,\n"
        "               \"trace-stream\": true}},\n"
        "  {\"workload\": \"kv-log\",\n"
        "   \"params\": {\"trace-chunk\": 128}}\n"
        " ]}\n");
    std::string sweepArg = "sweep=" + sweep.string();
    ResolvedExperiment r = resolve({sweepArg.c_str()});
    ASSERT_EQ(r.config.cellOverrides.size(), 2u);
    const SweepCellOverride &first = r.config.cellOverrides[0];
    EXPECT_EQ(first.scheme, "baseline");
    EXPECT_EQ(first.workload, "lbm");
    ASSERT_EQ(first.params.size(), 2u);
    EXPECT_EQ(first.params[0].first, "epoch-cycles");
    EXPECT_EQ(first.params[0].second, "5000"); // stringified number
    EXPECT_EQ(first.params[1].second, "true"); // stringified bool
    const SweepCellOverride &second = r.config.cellOverrides[1];
    EXPECT_EQ(second.scheme, "*"); // omitted half defaults to wildcard
    EXPECT_EQ(second.workload, "kv-log");
    // Overrides are per-cell only: the base config is untouched.
    EXPECT_EQ(r.config.system.epochCycles, 0u);
    EXPECT_EQ(r.config.traceChunkRecords, 64u * 1024);
}

TEST(ParamRegistry, SweepCellsRejectBadShapes)
{
    auto sweepError = [](const char *name, const std::string &json) {
        fs::path file = tempFile(name, json);
        std::string arg = "sweep=" + file.string();
        return errorOf({arg.c_str()});
    };
    // Unknown cell key, with a near-miss suggestion.
    EXPECT_NE(sweepError("c1.json",
                         "{\"cells\": [{\"schem\": \"baseline\", "
                         "\"params\": {}}]}")
                  .find("unknown cell key 'schem'"),
              std::string::npos);
    // Unknown parameter inside a cell fails at resolve, not mid-sweep.
    EXPECT_NE(sweepError("c2.json",
                         "{\"cells\": [{\"params\": "
                         "{\"measrue\": 5}}]}")
                  .find("measure"),
              std::string::npos);
    // Out-of-range value inside a cell fails at resolve too.
    EXPECT_NE(sweepError("c3.json",
                         "{\"cells\": [{\"params\": "
                         "{\"granularity\": 0}}]}")
                  .find("out of range"),
              std::string::npos);
    // Bad scheme / workload names are validated like the top-level
    // lists (near-miss included).
    EXPECT_NE(sweepError("c4.json",
                         "{\"cells\": [{\"scheme\": \"basline\", "
                         "\"params\": {}}]}")
                  .find("unknown scheme"),
              std::string::npos);
    EXPECT_NE(sweepError("c5.json",
                         "{\"cells\": [{\"workload\": \"dnn-updat\", "
                         "\"params\": {}}]}")
                  .find("dnn-update"),
              std::string::npos);
    // Structural errors: non-array cells, non-object entry, missing
    // params, non-scalar param value.
    EXPECT_NE(sweepError("c6.json", "{\"cells\": {}}")
                  .find("must be an array"),
              std::string::npos);
    EXPECT_NE(sweepError("c7.json", "{\"cells\": [7]}")
                  .find("must be an object"),
              std::string::npos);
    EXPECT_NE(sweepError("c8.json",
                         "{\"cells\": [{\"scheme\": \"baseline\"}]}")
                  .find("needs a 'params' object"),
              std::string::npos);
    EXPECT_NE(sweepError("c9.json",
                         "{\"cells\": [{\"params\": "
                         "{\"epoch-cycles\": [1]}}]}")
                  .find("must be a scalar"),
              std::string::npos);
    // A cell whose cache ways no longer divide the size fails with
    // the key named when the cell is built, before any simulation.
    fs::path ways = tempFile("c10.json",
                             "{\"cells\": [{\"params\": "
                             "{\"cache.l3-ways\": 12}}]}");
    std::string waysArg = "sweep=" + ways.string();
    ResolvedExperiment r = resolve({waysArg.c_str()});
    std::string what;
    try {
        runOne(SchemeKind::Baseline, "lbm", r.config);
    } catch (const std::runtime_error &e) {
        what = e.what();
    }
    EXPECT_NE(what.find("cache.l3-ways=12"), std::string::npos) << what;

    // Likewise a cell whose memory geometry the model cannot hold.
    fs::path geom = tempFile("c11.json",
                             "{\"cells\": [{\"params\": "
                             "{\"geom.mat-groups\": 6}}]}");
    std::string geomArg = "sweep=" + geom.string();
    ResolvedExperiment cell = resolve({geomArg.c_str()});
    what.clear();
    try {
        runOne(SchemeKind::Baseline, "lbm", cell.config);
    } catch (const std::runtime_error &e) {
        what = e.what();
    }
    EXPECT_NE(what.find("geom.mat-groups=6"), std::string::npos) << what;

    // A retired mat key inside a cell fails at resolve, naming it.
    for (const char *key : {"geom.mat-rows", "geom.mat-cols"}) {
        what = sweepError("c12.json",
                          std::string("{\"cells\": [{\"params\": {\"") +
                              key + "\": 1024}}]}");
        EXPECT_NE(what.find(std::string("'") + key + "'"),
                  std::string::npos)
            << what;
    }
}

TEST(ParamRegistry, SweepCellsPrecedenceAcrossTheFullStack)
{
    // One matching and one non-matching cell, plus a CLI assignment
    // that collides with a cell param. Expected layering per cell:
    // defaults < sweep params < cells < CLI.
    fs::path sweep = tempFile(
        "cells-prec.json",
        "{\"params\": {\"epoch-cycles\": 10000},\n"
        " \"cells\": [\n"
        "  {\"scheme\": \"baseline\", \"workload\": \"lbm\",\n"
        "   \"params\": {\"epoch-cycles\": 5000,\n"
        "               \"trace-chunk\": 128}}\n"
        " ]}\n");
    fs::path base = fs::path(::testing::TempDir()) / "ladder_cells";
    fs::remove_all(base);
    std::string sweepArg = "sweep=" + sweep.string();
    std::string statsArg = "stats-json=" + base.string();
    ResolvedExperiment r = resolve(
        {sweepArg.c_str(), statsArg.c_str(), "warmup=4000",
         "measure=1500", "cache-scale=0.0625", "epoch-cycles=2500"});
    // The colliding CLI assignment is recorded for re-application.
    ASSERT_FALSE(r.config.cliAssignments.empty());

    runOne(SchemeKind::Baseline, "lbm", r.config);
    runOne(SchemeKind::LadderHybrid, "lbm", r.config);

    JsonValue matched =
        parseJson(slurp(base / "baseline__lbm" / "stats.json"));
    JsonValue unmatched =
        parseJson(slurp(base / "LADDER-Hybrid__lbm" / "stats.json"));
    ASSERT_TRUE(matched.isObject());
    ASSERT_TRUE(unmatched.isObject());
    const JsonValue &mc = matched.at("resolved_config");
    const JsonValue &uc = unmatched.at("resolved_config");
    // Matched cell: cell beats sweep params, CLI beats the cell.
    EXPECT_DOUBLE_EQ(mc.at("trace-chunk").number, 128.0);
    EXPECT_DOUBLE_EQ(mc.at("epoch-cycles").number, 2500.0);
    // Non-matching cell: no cell params, CLI value as resolved.
    EXPECT_DOUBLE_EQ(uc.at("trace-chunk").number, 65536.0);
    EXPECT_DOUBLE_EQ(uc.at("epoch-cycles").number, 2500.0);

    fs::remove_all(base);
}

} // namespace
} // namespace ladder
