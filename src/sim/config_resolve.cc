#include "config_resolve.hh"

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "common/log.hh"
#include "trace/workload_frontend.hh"
#include "trace/workloads.hh"

namespace ladder
{

namespace
{

/** All scheme display names, for validation and suggestions. */
std::vector<std::string>
allSchemeNames()
{
    std::vector<std::string> names;
    for (SchemeKind kind :
         {SchemeKind::Baseline, SchemeKind::Location,
          SchemeKind::SplitReset, SchemeKind::Blp,
          SchemeKind::LadderBasic, SchemeKind::LadderEst,
          SchemeKind::LadderEstNoShift, SchemeKind::LadderHybrid,
          SchemeKind::Oracle})
        names.push_back(schemeKindName(kind));
    return names;
}

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> items;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos)
            comma = csv.size();
        if (comma > pos)
            items.push_back(csv.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return items;
}

/**
 * Parse a JSON file into a document, converting the parser's panics
 * into a user-facing fatal() naming the file.
 */
JsonValue
loadJsonFile(const std::string &path, const char *what)
{
    std::ifstream is(path, std::ios::binary);
    if (!is.good())
        fatal("cannot read %s file '%s'", what, path.c_str());
    std::ostringstream buffer;
    buffer << is.rdbuf();
    try {
        return parseJson(buffer.str());
    } catch (const std::exception &e) {
        fatal("%s file '%s' is not valid JSON: %s", what,
              path.c_str(), e.what());
    }
}

/**
 * Validate a CSV/array selection against the workload frontend: the
 * paper's synthetics, the generator families, and structural
 * `trace:<path>` names.
 */
std::vector<std::string>
validateWorkloads(const std::vector<std::string> &selected,
                  const std::string &source)
{
    for (const auto &name : selected)
        validateWorkloadName(name, source);
    if (selected.empty())
        fatal("%s: empty workload selection", source.c_str());
    return selected;
}

/** Validate a CSV/array selection and map it to SchemeKinds. */
std::vector<SchemeKind>
validateSchemes(const std::vector<std::string> &selected,
                const std::string &source)
{
    const std::vector<std::string> known = allSchemeNames();
    std::vector<SchemeKind> kinds;
    for (const auto &name : selected) {
        bool ok = false;
        for (const auto &candidate : known)
            ok |= candidate == name;
        if (!ok) {
            fatal("%s: unknown scheme '%s'%s", source.c_str(),
                  name.c_str(),
                  param_detail::suggestNearest(name, known).c_str());
        }
        kinds.push_back(schemeKindFromName(name));
    }
    if (kinds.empty())
        fatal("%s: empty scheme selection", source.c_str());
    return kinds;
}

using Registry = ParamRegistry<ExperimentConfig>;

/** Shorthand: accessor lambda for a direct ExperimentConfig field. */
#define LADDER_FIELD(expr) \
    [](ExperimentConfig &c) -> decltype(c.expr) & { return c.expr; }

void
registerExperimentParams(Registry &reg)
{
    // ---------------------------------------------------------------
    // Run window and sweep control
    // ---------------------------------------------------------------
    reg.addInt<std::uint64_t>(
        "warmup", LADDER_FIELD(warmupInstr),
        "Functional warmup instructions per core before the measured "
        "window");
    reg.addInt<std::uint64_t>(
        "measure", LADDER_FIELD(measureInstr),
        "Measured-window instructions per core", 1);
    reg.addInt<std::uint64_t>(
        "seed", LADDER_FIELD(seed),
        "Master RNG seed for synthetic traffic and data patterns");
    reg.addInt<unsigned>(
           "jobs", LADDER_FIELD(jobs),
           "Parallel sweep jobs (0 = one per hardware thread, 1 = "
           "serial); results are bit-identical at any value",
           0, 1024)
        .inManifest = false;
    reg.addDouble("cache-scale", LADDER_FIELD(cacheScale),
                  "Scale factor on L2/L3 capacities and working sets",
                  1e-3, 16.0);
    reg.addDouble("range-shrink", LADDER_FIELD(system.rangeShrink),
                  "RESET-latency dynamic-range shrink factor (§7 "
                  "process-variation ablation)",
                  1e-3, 1e3);
    reg.addInt<unsigned>(
        "granularity", LADDER_FIELD(system.tableGranularity),
        "Counter/table granularity: WL/BL buckets per timing table "
        "axis",
        1, 64);
    reg.addEnum<FnwMode>(
        "fnw-mode", LADDER_FIELD(system.controller.fnwMode),
        "Flip-N-Write mode applied by the controllers",
        {{"off", FnwMode::Off},
         {"classical", FnwMode::Classical},
         {"constrained", FnwMode::Constrained}});
    reg.addBool("mna", LADDER_FIELD(checkMna),
                "Cross-check derived latency surfaces against the "
                "full MNA solver (fig11; slower)");
    reg.addBool("stats", LADDER_FIELD(printStats),
                "Print each run's full statistics tree after it")
        .inManifest = false;

    // ---------------------------------------------------------------
    // Output: stats export and event traces
    // ---------------------------------------------------------------
    reg.addString("stats-json", LADDER_FIELD(statsJsonDir),
                  "Directory for per-run stats.json and the sweep "
                  "index ('' = off)")
        .inManifest = false;
    reg.addString("trace-out", LADDER_FIELD(traceOutDir),
                  "Directory for per-run write/read event traces "
                  "('' = off)")
        .inManifest = false;
    reg.addChoice("trace-format", LADDER_FIELD(traceFormat),
                  "Trace encoding", {"csv", "bin2"});
    reg.addBool("trace-stream", LADDER_FIELD(traceStream),
                "Stream traces to disk during the run in bounded "
                "memory");
    reg.addBool("trace.attribution",
                LADDER_FIELD(system.controller.attribution),
                "Per-write causal blame decomposition: v3 trace "
                "records, blame stats/histograms, and live blame-rate "
                "counters (off = byte-identical legacy outputs)")
        .inManifest = false;
    reg.addInt<std::uint64_t>(
        "trace-chunk", LADDER_FIELD(traceChunkRecords),
        "Records per streamed/bin2 trace chunk", 1,
        std::uint64_t(1) << 30);
    reg.addInt<std::uint64_t>(
        "epoch-cycles", LADDER_FIELD(system.epochCycles),
        "Core cycles per epoch stat snapshot (0 = no epoch series)");
    reg.addBool("volatile-manifest", LADDER_FIELD(volatileManifest),
                "Include wall clock and job count in JSON manifests "
                "(breaks byte-identity across runs)")
        .inManifest = false;
    reg.addString("profile-out", LADDER_FIELD(profileOut),
                  "Write a Chrome-trace/Perfetto host+sim timeline "
                  "JSON to this path ('' = off)")
        .inManifest = false;
    reg.addBool("profile", LADDER_FIELD(profileSummary),
                "Print an aggregate per-span host profile to stderr "
                "after the run")
        .inManifest = false;

    // ---------------------------------------------------------------
    // Live telemetry (sim/telemetry; all manifest-excluded so goldens
    // and jobs= byte-identity are untouched by observability knobs)
    // ---------------------------------------------------------------
    reg.addInt<std::uint64_t>(
           "telemetry.interval-ms", LADDER_FIELD(telemetryIntervalMs),
           "Heartbeat.json sampling period in ms (0 = off)", 0,
           3'600'000)
        .inManifest = false;
    reg.addString("telemetry.out", LADDER_FIELD(telemetryOut),
                  "Heartbeat directory ('' = the stats-json "
                  "directory)")
        .inManifest = false;
    reg.addInt<unsigned>(
           "telemetry.watchdog-intervals",
           LADDER_FIELD(telemetryWatchdogIntervals),
           "Stalled-sim-tick samples before the watchdog warns with "
           "the active profiler spans (0 = off)",
           0, 1'000'000)
        .inManifest = false;
    reg.addChoice("progress", LADDER_FIELD(progress),
                  "Final one-line run summary on stderr ('auto' only "
                  "prints on a TTY)",
                  {"off", "auto"})
        .inManifest = false;

    // ---------------------------------------------------------------
    // Write-scheme options
    // ---------------------------------------------------------------
    reg.addInt<unsigned>(
        "scheme.hybrid-low-rows",
        LADDER_FIELD(system.schemeOptions.hybridLowRows),
        "LADDER-Hybrid: wordlines nearest the write driver that keep "
        "1-bit counters (0 = none: every row keeps LADDER-Est's "
        "2-bit counters)",
        0, 4096);

    // ---------------------------------------------------------------
    // Memory geometry (SystemConfig template)
    // ---------------------------------------------------------------
    reg.addInt<unsigned>("geom.channels",
                         LADDER_FIELD(system.geometry.channels),
                         "Memory channels", 1, 16);
    reg.addInt<unsigned>("geom.ranks",
                         LADDER_FIELD(system.geometry.ranksPerChannel),
                         "Ranks per channel", 1, 16);
    reg.addInt<unsigned>("geom.banks",
                         LADDER_FIELD(system.geometry.banksPerRank),
                         "Banks per rank", 1, 64);
    reg.addInt<unsigned>(
        "geom.mat-groups", LADDER_FIELD(system.geometry.matGroupsPerBank),
        "64-mat groups per bank (a multiple of 4)", 1, 1024);

    // ---------------------------------------------------------------
    // Crossbar / circuit model
    // ---------------------------------------------------------------
    reg.addInt<std::size_t>("xbar.rows",
                            LADDER_FIELD(system.crossbar.rows),
                            "Wordlines per mat (columns are fixed at "
                            "512)",
                            8, 4096);
    reg.addInt<std::size_t>(
        "xbar.selected-cells",
        LADDER_FIELD(system.crossbar.selectedCells),
        "Bits RESET per mat per write", 1, 64);
    reg.addDouble("xbar.lrs-ohms", LADDER_FIELD(system.crossbar.lrsOhms),
                  "LRS resistance", 1.0, 1e9);
    reg.addDouble("xbar.hrs-ohms", LADDER_FIELD(system.crossbar.hrsOhms),
                  "HRS resistance", 1.0, 1e12);
    reg.addDouble("xbar.nonlinearity",
                  LADDER_FIELD(system.crossbar.selectorNonlinearity),
                  "Selector nonlinearity I(Vw)/I(Vw/2) (2 is a linear "
                  "cell)",
                  2.0, 1e6);
    reg.addDouble("xbar.input-ohms",
                  LADDER_FIELD(system.crossbar.inputOhms),
                  "Wordline driver resistance", 0.0, 1e6);
    reg.addDouble("xbar.output-ohms",
                  LADDER_FIELD(system.crossbar.outputOhms),
                  "Bitline driver resistance", 1e-3, 1e6);
    reg.addDouble("xbar.wire-ohms",
                  LADDER_FIELD(system.crossbar.wireOhms),
                  "Per-segment wire resistance", 1e-3, 1e4);
    reg.addDouble("xbar.write-volts",
                  LADDER_FIELD(system.crossbar.writeVolts),
                  "RESET voltage", 0.1, 10.0);
    reg.addDouble("xbar.bias-volts",
                  LADDER_FIELD(system.crossbar.biasVolts),
                  "Half-select bias voltage", 0.0, 10.0);
    reg.addDouble("xbar.wl-sneak-scale",
                  LADDER_FIELD(system.crossbar.wlSneakScale),
                  "Calibration boost on selected-wordline sneak "
                  "conductance",
                  0.1, 100.0);
    reg.addDouble("xbar.bl-sneak-scale",
                  LADDER_FIELD(system.crossbar.blSneakScale),
                  "Calibration boost on selected-bitline sneak "
                  "conductance",
                  0.1, 100.0);

    // ---------------------------------------------------------------
    // Memory controller
    // ---------------------------------------------------------------
    reg.addInt<unsigned>(
        "ctrl.read-queue",
        LADDER_FIELD(system.controller.readQueueEntries),
        "Read queue entries per channel", 1, 1024);
    reg.addInt<unsigned>(
        "ctrl.write-queue",
        LADDER_FIELD(system.controller.writeQueueEntries),
        "Write queue entries per channel", 1, 4096);
    reg.addDouble("ctrl.drain-high",
                  LADDER_FIELD(system.controller.drainHighWatermark),
                  "Write-queue fill fraction that starts a drain", 0.0,
                  1.0);
    reg.addDouble("ctrl.drain-low",
                  LADDER_FIELD(system.controller.drainLowWatermark),
                  "Write-queue fill fraction that stops a drain", 0.0,
                  1.0);
    reg.addDouble("ctrl.trcd-ns",
                  LADDER_FIELD(system.controller.tRcdNs),
                  "Row-to-column delay", 0.0, 1e3);
    reg.addDouble("ctrl.tcl-ns", LADDER_FIELD(system.controller.tClNs),
                  "Column access latency", 0.0, 1e3);
    reg.addDouble("ctrl.tburst-ns",
                  LADDER_FIELD(system.controller.tBurstNs),
                  "Data burst time", 0.0, 1e3);
    reg.addInt<unsigned>(
        "ctrl.subarrays",
        LADDER_FIELD(system.controller.subarraysPerBank),
        "Concurrent mat-group subarrays per bank", 1, 64);
    reg.addInt<std::size_t>(
        "ctrl.metadata-cache-bytes",
        LADDER_FIELD(system.controller.metadataCacheBytes),
        "Controller metadata cache capacity in bytes", 1024,
        std::size_t(64) * 1024 * 1024);
    reg.addInt<unsigned>(
        "ctrl.metadata-ways",
        LADDER_FIELD(system.controller.metadataCacheWays),
        "Controller metadata cache associativity", 1, 64);
    reg.addInt<unsigned>(
        "ctrl.spill-entries",
        LADDER_FIELD(system.controller.spillBufferEntries),
        "Spill buffer entries (LADDER-Hybrid accurate counters)", 1,
        1024);
    reg.addDouble("ctrl.read-energy-pj",
                  LADDER_FIELD(system.controller.readEnergyPj),
                  "Energy per demand/metadata/SMB read", 0.0, 1e6);
    reg.addDouble("ctrl.transition-energy-pj",
                  LADDER_FIELD(system.controller.transitionEnergyPj),
                  "Energy per cell switched on writes", 0.0, 1e6);

    // ---------------------------------------------------------------
    // Cache hierarchy
    // ---------------------------------------------------------------
    reg.addInt<std::size_t>("cache.l1-bytes",
                            LADDER_FIELD(system.caches.l1.sizeBytes),
                            "Per-core L1 capacity in bytes", 4096,
                            std::size_t(1) << 30);
    reg.addInt<unsigned>("cache.l1-ways",
                         LADDER_FIELD(system.caches.l1.ways),
                         "L1 associativity", 1, 64);
    reg.addInt<std::size_t>("cache.l2-bytes",
                            LADDER_FIELD(system.caches.l2.sizeBytes),
                            "Per-core L2 capacity in bytes", 4096,
                            std::size_t(1) << 32);
    reg.addInt<unsigned>("cache.l2-ways",
                         LADDER_FIELD(system.caches.l2.ways),
                         "L2 associativity", 1, 64);
    reg.addInt<std::size_t>("cache.l3-bytes",
                            LADDER_FIELD(system.caches.l3.sizeBytes),
                            "Shared L3 capacity in bytes", 4096,
                            std::size_t(1) << 36);
    reg.addInt<unsigned>("cache.l3-ways",
                         LADDER_FIELD(system.caches.l3.ways),
                         "L3 associativity", 1, 64);
    reg.addDouble("cache.l1-hit-ns",
                  LADDER_FIELD(system.caches.l1HitNs), "L1 hit latency",
                  0.0, 100.0);
    reg.addDouble("cache.l2-hit-ns",
                  LADDER_FIELD(system.caches.l2HitNs), "L2 hit latency",
                  0.0, 100.0);
    reg.addDouble("cache.l3-hit-ns",
                  LADDER_FIELD(system.caches.l3HitNs), "L3 hit latency",
                  0.0, 100.0);

    // ---------------------------------------------------------------
    // Cores
    // ---------------------------------------------------------------
    reg.addDouble("core.freq-ghz", LADDER_FIELD(system.core.freqGhz),
                  "Core clock frequency", 0.1, 10.0);
    reg.addInt<unsigned>("core.width", LADDER_FIELD(system.core.width),
                         "Retire width", 1, 16);
    reg.addInt<unsigned>("core.rob", LADDER_FIELD(system.core.robSize),
                         "Reorder buffer entries", 16, 4096);
    reg.addInt<unsigned>("core.mshrs",
                         LADDER_FIELD(system.core.maxOutstanding),
                         "Outstanding misses to memory per core", 1,
                         256);
    reg.addInt<unsigned>("core.quantum",
                         LADDER_FIELD(system.core.quantum),
                         "Trace records per core activation", 1,
                         65536);
    reg.addInt<unsigned>("core.writeback-stall",
                         LADDER_FIELD(system.core.writebackStall),
                         "Buffered writebacks before the core stalls",
                         1, 256);

    // ---------------------------------------------------------------
    // System-level workload shaping
    // ---------------------------------------------------------------
    reg.addDouble("sys.working-set-scale",
                  LADDER_FIELD(system.workingSetScale),
                  "Scale factor on per-core working sets", 1e-3, 64.0);
    reg.addDouble("sys.data-page-fraction",
                  LADDER_FIELD(system.dataPageFraction),
                  "Fraction of pages holding data (rest is metadata)",
                  0.05, 1.0);
    reg.addDouble("sys.background-density",
                  LADDER_FIELD(system.backgroundDensity),
                  "LRS fraction of untouched background rows", 0.0,
                  1.0);
    // paper-scale applies the paper's cache/working-set sizes when
    // set, at its position in the layering: later keys (for example
    // cache.l3-bytes) can still override individual fields.
    reg.addBool("sys.paper-scale",
                LADDER_FIELD(system.paperScale),
                "Apply the paper's full-scale cache and working-set "
                "sizes (Table 2)")
        .set = [](ExperimentConfig &c, const std::string &value,
                  const std::string &source) {
        bool parsed = false;
        if (!param_detail::parseBoolStrict(value, parsed)) {
            param_detail::valueError(
                source, "sys.paper-scale", value,
                "is not a boolean (true/false/1/0/yes/no)",
                "Apply the paper's full-scale cache and working-set "
                "sizes (Table 2)");
        }
        if (parsed)
            applyPaperScale(c.system);
        else
            c.system.paperScale = false;
    };

    // ---------------------------------------------------------------
    // External trace replay (trace:<path> workloads)
    // ---------------------------------------------------------------
    reg.addInt<std::uint64_t>(
        "extern.footprint-pages",
        LADDER_FIELD(system.frontend.externFootprintPages),
        "Replay footprint in 4KB pages; external line addresses fold "
        "into it (lineIdx % footprintLines)",
        1, std::uint64_t(1) << 24);
    reg.addChoice("extern.content",
                  LADDER_FIELD(system.frontend.externContent),
                  "Write-content synthesis for payload-less traces: "
                  "recorded-LRS popcounts where a record has an LRS "
                  "count, else typed pattern words ('auto'), or "
                  "always pattern words",
                  {"auto", "pattern"});

    // ---------------------------------------------------------------
    // Wear policy
    // ---------------------------------------------------------------
    reg.addInt<unsigned>("wear.psi", LADDER_FIELD(wear.startGapPsi),
                         "Start-Gap: data writes between gap moves", 1,
                         1u << 20);
    reg.addDouble("wear.endurance", LADDER_FIELD(wear.cellEndurance),
                  "Mean cell endurance in writes", 1e3, 1e12);
    reg.addDouble("wear.leveling-efficiency",
                  LADDER_FIELD(wear.levelingEfficiency),
                  "Fraction of ideal write spreading the deployed "
                  "wear-leveling achieves",
                  0.0, 1.0);
}

#undef LADDER_FIELD

/** Most deeply nested include= chain a sweep spec may form. */
constexpr std::size_t maxSweepIncludeDepth = 16;

/**
 * Apply a sweep-spec document to the resolution in progress.
 * @p stack holds the canonical paths of the files currently being
 * applied, outermost first — the cycle detector and depth limiter for
 * include= chains. Included files apply *before* the including
 * file's own keys, so the includer overrides what it includes (same
 * later-wins layering as the rest of the config spine).
 */
void
applySweepSpec(const JsonValue &spec, const std::string &path,
               ResolvedExperiment &out,
               std::vector<std::string> &stack)
{
    if (!spec.isObject())
        fatal("sweep file '%s': top level must be a JSON object",
              path.c_str());
    static const std::vector<std::string> knownKeys = {
        "include", "schemes", "workloads", "params", "cells"};
    for (const auto &member : spec.object) {
        bool ok = false;
        for (const auto &key : knownKeys)
            ok |= key == member.first;
        if (!ok) {
            fatal("sweep file '%s': unknown key '%s'%s (expected "
                  "include/schemes/workloads/params/cells)",
                  path.c_str(), member.first.c_str(),
                  param_detail::suggestNearest(member.first, knownKeys)
                      .c_str());
        }
    }
    if (spec.has("include")) {
        const JsonValue &inc = spec.at("include");
        std::vector<std::string> files;
        if (inc.type == JsonValue::Type::String) {
            files.push_back(inc.string);
        } else if (inc.isArray()) {
            for (const JsonValue &item : inc.array) {
                if (item.type != JsonValue::Type::String)
                    fatal("sweep file '%s': 'include' must be a path "
                          "or an array of paths",
                          path.c_str());
                files.push_back(item.string);
            }
        } else {
            fatal("sweep file '%s': 'include' must be a path or an "
                  "array of paths",
                  path.c_str());
        }
        for (const std::string &file : files) {
            // Relative to the including file, not the process cwd,
            // so sweep libraries compose from any invocation dir.
            std::filesystem::path resolved(file);
            if (resolved.is_relative())
                resolved =
                    std::filesystem::path(path).parent_path() / file;
            std::error_code ec;
            std::filesystem::path canonical =
                std::filesystem::weakly_canonical(resolved, ec);
            const std::string key =
                ec ? resolved.string() : canonical.string();
            for (const std::string &open : stack) {
                if (open == key) {
                    std::string chain;
                    for (const std::string &p : stack)
                        chain += p + " -> ";
                    chain += key;
                    fatal("sweep file '%s': include cycle: %s",
                          path.c_str(), chain.c_str());
                }
            }
            if (stack.size() >= maxSweepIncludeDepth)
                fatal("sweep file '%s': include chain deeper than "
                      "%zu files",
                      path.c_str(), maxSweepIncludeDepth);
            JsonValue doc = loadJsonFile(resolved.string(), "sweep");
            stack.push_back(key);
            applySweepSpec(doc, resolved.string(), out, stack);
            stack.pop_back();
        }
    }
    auto stringList = [&](const char *key) {
        std::vector<std::string> items;
        const JsonValue &list = spec.at(key);
        if (!list.isArray())
            fatal("sweep file '%s': '%s' must be an array of strings",
                  path.c_str(), key);
        for (const JsonValue &item : list.array) {
            if (item.type != JsonValue::Type::String)
                fatal("sweep file '%s': '%s' must be an array of "
                      "strings",
                      path.c_str(), key);
            items.push_back(item.string);
        }
        return items;
    };
    if (spec.has("schemes")) {
        out.schemes = validateSchemes(stringList("schemes"),
                                      "sweep file '" + path + "'");
        out.schemesExplicit = true;
    }
    if (spec.has("workloads")) {
        out.workloads = validateWorkloads(stringList("workloads"),
                                          "sweep file '" + path + "'");
        out.workloadsExplicit = true;
    }
    if (spec.has("params")) {
        experimentRegistry().applyJson(out.config, spec.at("params"),
                                       "sweep file '" + path + "'");
    }
    if (spec.has("cells")) {
        const std::string source = "sweep file '" + path + "'";
        const JsonValue &cells = spec.at("cells");
        if (!cells.isArray())
            fatal("%s: 'cells' must be an array of {scheme, "
                  "workload, params} objects",
                  source.c_str());
        for (const JsonValue &cell : cells.array) {
            if (!cell.isObject())
                fatal("%s: each 'cells' entry must be an object",
                      source.c_str());
            static const std::vector<std::string> cellKeys = {
                "scheme", "workload", "params"};
            for (const auto &member : cell.object) {
                bool ok = false;
                for (const auto &key : cellKeys)
                    ok |= key == member.first;
                if (!ok)
                    fatal("%s: unknown cell key '%s'%s (expected "
                          "scheme/workload/params)",
                          source.c_str(), member.first.c_str(),
                          param_detail::suggestNearest(member.first,
                                                       cellKeys)
                              .c_str());
            }
            SweepCellOverride ov;
            auto cellName = [&](const char *key) {
                const JsonValue &v = cell.at(key);
                if (v.type != JsonValue::Type::String)
                    fatal("%s: cell '%s' must be a name or \"*\"",
                          source.c_str(), key);
                return v.string;
            };
            if (cell.has("scheme")) {
                ov.scheme = cellName("scheme");
                if (ov.scheme != "*")
                    validateSchemes({ov.scheme}, source);
            }
            if (cell.has("workload")) {
                ov.workload = cellName("workload");
                if (ov.workload != "*")
                    validateWorkloads({ov.workload}, source);
            }
            if (!cell.has("params") ||
                !cell.at("params").isObject())
                fatal("%s: each 'cells' entry needs a 'params' "
                      "object",
                      source.c_str());
            // Validate every assignment now (types, ranges, unknown
            // keys fail at resolve, not mid-sweep) on a scratch copy,
            // and keep the stringified form for per-cell application.
            ExperimentConfig scratch = out.config;
            for (const auto &member : cell.at("params").object) {
                const JsonValue &v = member.second;
                std::string text;
                switch (v.type) {
                case JsonValue::Type::String:
                    text = v.string;
                    break;
                case JsonValue::Type::Number:
                    text = param_detail::formatDouble(v.number);
                    break;
                case JsonValue::Type::Bool:
                    text = v.boolean ? "true" : "false";
                    break;
                default:
                    fatal("%s: cell param '%s' must be a scalar",
                          source.c_str(), member.first.c_str());
                }
                experimentRegistry().set(scratch, member.first, text,
                                         source);
                ov.params.emplace_back(member.first, text);
            }
            out.config.cellOverrides.push_back(std::move(ov));
        }
    }
}

} // namespace

const ParamRegistry<ExperimentConfig> &
experimentRegistry()
{
    static const ParamRegistry<ExperimentConfig> registry = []() {
        ParamRegistry<ExperimentConfig> reg;
        registerExperimentParams(reg);
        return reg;
    }();
    return registry;
}

ResolvedExperiment
resolveExperiment(int argc, const char *const *argv,
                  ExperimentConfig base)
{
    ResolvedExperiment out;
    out.config = std::move(base);

    // One scan splits argv into meta keys (config=, sweep=, the
    // scheme/workload selections, the -- flags) and ordered registry
    // assignments; the layers are then applied defaults -> config
    // file -> sweep params -> CLI so later layers win.
    struct Assignment
    {
        std::string key;
        std::string value;
    };
    std::vector<Assignment> cli;
    std::string schemeCsv, workloadCsv;
    bool schemesFromCli = false, workloadsFromCli = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--dump-config") {
            out.dumpRequested = true;
            continue;
        }
        if (arg == "--help-config") {
            out.helpRequested = true;
            continue;
        }
        if (arg == "--help-config=md") {
            out.helpRequested = true;
            out.helpFormat = "md";
            continue;
        }
        auto eq = arg.find('=');
        if (eq == std::string::npos || eq == 0) {
            fatal("command line: unexpected argument '%s' (every "
                  "option is key=value; see --help-config)",
                  arg.c_str());
        }
        const std::string key = arg.substr(0, eq);
        const std::string value = arg.substr(eq + 1);
        if (key == "config") {
            if (!out.configFile.empty())
                fatal("command line: config= given twice ('%s' and "
                      "'%s')",
                      out.configFile.c_str(), value.c_str());
            out.configFile = value;
        } else if (key == "sweep") {
            if (!out.sweepFile.empty())
                fatal("command line: sweep= given twice ('%s' and "
                      "'%s')",
                      out.sweepFile.c_str(), value.c_str());
            out.sweepFile = value;
        } else if (key == "scheme" || key == "schemes") {
            schemeCsv = value;
            schemesFromCli = true;
        } else if (key == "workload" || key == "workloads") {
            workloadCsv = value;
            workloadsFromCli = true;
        } else {
            cli.push_back({key, value});
        }
    }

    const Registry &reg = experimentRegistry();
    if (!out.configFile.empty()) {
        JsonValue doc = loadJsonFile(out.configFile, "config");
        reg.applyJson(out.config, doc,
                      "config file '" + out.configFile + "'");
    }
    if (!out.sweepFile.empty()) {
        JsonValue doc = loadJsonFile(out.sweepFile, "sweep");
        std::error_code ec;
        std::filesystem::path canonical =
            std::filesystem::weakly_canonical(out.sweepFile, ec);
        std::vector<std::string> stack{
            ec ? out.sweepFile : canonical.string()};
        applySweepSpec(doc, out.sweepFile, out, stack);
    }
    for (const Assignment &a : cli) {
        reg.set(out.config, a.key, a.value, "command line");
        // Remembered for per-cell reapplication: sweep-spec "cells"
        // overrides apply inside runOne, and the CLI must still win.
        out.config.cliAssignments.emplace_back(a.key, a.value);
    }

    validateCacheGeometry(out.config.system.caches, "resolved config");
    validateMemoryGeometry(out.config.system.geometry, "resolved config");

    // CLI scheme/workload selections override the sweep spec's lists.
    if (schemesFromCli) {
        out.schemes =
            validateSchemes(splitCsv(schemeCsv), "command line");
        out.schemesExplicit = true;
    }
    if (workloadsFromCli) {
        out.workloads =
            validateWorkloads(splitCsv(workloadCsv), "command line");
        out.workloadsExplicit = true;
    }
    return out;
}

void
validateCacheGeometry(const HierarchyParams &caches,
                      const std::string &source)
{
    const std::pair<const char *, const CacheParams *> levels[] = {
        {"l1", &caches.l1}, {"l2", &caches.l2}, {"l3", &caches.l3}};
    for (const auto &[level, params] : levels) {
        const std::size_t entries = params->sizeBytes / lineBytes;
        if (entries >= params->ways && entries % params->ways == 0)
            continue;
        fatal("%s: cache.%s-bytes=%zu does not divide into "
              "cache.%s-ways=%u sets of %u-byte lines — use a "
              "multiple of %zu bytes",
              source.c_str(), level, params->sizeBytes, level,
              params->ways, lineBytes,
              static_cast<std::size_t>(params->ways) * lineBytes);
    }
}

void
validateMemoryGeometry(const MemoryGeometry &geo,
                       const std::string &source)
{
    if (geo.matGroupsPerBank % MemoryGeometry::subarraySlots != 0)
        fatal("%s: geom.mat-groups=%u is not a multiple of %u — mat "
              "groups interleave as %u concurrent subarray slots per "
              "bank",
              source.c_str(), geo.matGroupsPerBank,
              MemoryGeometry::subarraySlots,
              MemoryGeometry::subarraySlots);
}

void
dumpEffectiveConfig(const ExperimentConfig &config, std::ostream &os)
{
    JsonWriter json(os);
    experimentRegistry().dumpJson(
        config, json, ParamRegistry<ExperimentConfig>::Scope::All);
    os << "\n";
}

ResolvedExperiment
parseBenchArgs(int argc, char **argv, ExperimentConfig &cfg,
               std::vector<std::string> defaultWorkloads,
               std::vector<SchemeKind> defaultSchemes)
{
    ResolvedExperiment args = resolveExperiment(argc, argv, cfg);
    if (args.helpRequested && args.helpFormat == "md") {
        experimentRegistry().helpMarkdown(std::cout, args.config);
        std::exit(0);
    }
    if (args.helpRequested) {
        std::cout << "parameters (key=value; also loadable from "
                     "config= JSON):\n";
        experimentRegistry().help(std::cout, args.config);
        std::exit(0);
    }
    if (args.dumpRequested) {
        dumpEffectiveConfig(args.config, std::cout);
        std::exit(0);
    }
    cfg = args.config;
    if (!args.workloadsExplicit)
        args.workloads = defaultWorkloads.empty()
                             ? allWorkloadNames()
                             : std::move(defaultWorkloads);
    if (!args.schemesExplicit)
        args.schemes = defaultSchemes.empty() ? allSchemeKinds()
                                              : std::move(defaultSchemes);
    return args;
}

int
fatalExitCode()
{
    try {
        throw;
    } catch (const std::system_error &) {
        throw;
    } catch (const std::runtime_error &) {
        return 2;
    }
}

} // namespace ladder
