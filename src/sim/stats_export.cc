#include "stats_export.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>

#include "common/json.hh"
#include "common/log.hh"
#include "sim/config_resolve.hh"

namespace ladder
{

namespace
{

/** UTC wall clock as `YYYY-MM-DDTHH:MM:SSZ` (volatile manifests). */
std::string
utcNow()
{
    std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

/** The fast-model solves behind the run's timing models. */
void
writeSolverJson(JsonWriter &json, const SolverCounters &c)
{
    json.beginObject();
    json.field("solves", c.solves);
    json.field("iterations", c.iterations);
    json.field("stalls", c.stalls);
    json.endObject();
}

void
writeEpochsJson(JsonWriter &json, const System &system,
                std::uint64_t epochCycles)
{
    json.beginObject();
    json.field("epoch_cycles", epochCycles);
    json.key("names");
    json.beginArray();
    for (const auto &name : system.epochNames())
        json.value(name);
    json.endArray();
    json.key("series");
    json.beginArray();
    for (const EpochSnapshot &snap : system.epochs()) {
        json.beginObject();
        json.field("tick", snap.tick);
        json.key("values");
        json.beginArray();
        for (double v : snap.values)
            json.value(v);
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

std::filesystem::path
ensureRunDir(const std::string &root, const std::string &run)
{
    std::filesystem::path dir = std::filesystem::path(root) / run;
    std::filesystem::create_directories(dir);
    return dir;
}

} // namespace

const std::string &
gitDescribeString()
{
    static const std::string described = []() -> std::string {
        // Env override pins the manifest for byte-exact golden runs,
        // where `git describe` would drift with every commit.
        if (const char *env = std::getenv("LADDER_GIT_DESCRIBE"))
            return env;
        std::FILE *pipe =
            ::popen("git describe --always --dirty 2>/dev/null", "r");
        if (!pipe)
            return "unknown";
        char buf[128] = {};
        std::string out;
        while (std::fgets(buf, sizeof(buf), pipe))
            out += buf;
        int status = ::pclose(pipe);
        while (!out.empty() &&
               (out.back() == '\n' || out.back() == '\r'))
            out.pop_back();
        if (status != 0 || out.empty())
            return "unknown";
        return out;
    }();
    return described;
}

std::string
sanitizePathComponent(const std::string &component)
{
    static const char hex[] = "0123456789ABCDEF";
    std::string out;
    out.reserve(component.size());
    for (unsigned char c : component) {
        if (std::isalnum(c) || c == '-' || c == '_' || c == '.') {
            out.push_back(static_cast<char>(c));
        } else {
            // Percent-encoding is injective, so sanitized names of
            // distinct cells can never collide on disk.
            out.push_back('%');
            out.push_back(hex[c >> 4]);
            out.push_back(hex[c & 0xF]);
        }
    }
    return out;
}

std::string
runDirName(SchemeKind scheme, const std::string &workload)
{
    return sanitizePathComponent(schemeKindName(scheme)) + "__" +
           sanitizePathComponent(workload);
}

std::filesystem::path
traceFilePath(const ExperimentConfig &config, SchemeKind scheme,
              const std::string &workload)
{
    TraceFormat format = traceFormatFromName(config.traceFormat);
    return std::filesystem::path(config.traceOutDir) /
           runDirName(scheme, workload) /
           ("trace." + traceFormatExtension(format));
}

RunManifest
makeRunManifest(SchemeKind scheme, const std::string &workload,
                const ExperimentConfig &config)
{
    RunManifest m;
    m.run = runDirName(scheme, workload);
    m.scheme = schemeKindName(scheme);
    m.workload = workload;
    m.seed = config.seed;
    m.warmupInstr = config.warmupInstr;
    m.measureInstr = config.measureInstr;
    m.granularity = config.system.tableGranularity;
    m.rangeShrink = config.system.rangeShrink;
    m.cacheScale = config.cacheScale;
    m.epochCycles = config.system.epochCycles;
    m.gitDescribe = gitDescribeString();
    if (isTraceWorkload(workload)) {
        auto trace = externTraceInfoFor(workload);
        m.hasExternTrace = true;
        m.externTracePath = traceWorkloadPath(workload);
        m.externTraceFormat = externTraceFormatName(trace->format);
        m.externTraceRecords = trace->records.size();
        m.externTraceCrc32 = trace->crc32;
    }
    if (config.volatileManifest) {
        m.volatileFields = true;
        m.wallClockUtc = utcNow();
        m.jobs = config.jobs;
    }
    return m;
}

void
writeManifestFields(JsonWriter &json, const RunManifest &manifest)
{
    json.field("run", manifest.run);
    json.field("scheme", manifest.scheme);
    json.field("workload", manifest.workload);
    json.field("seed", manifest.seed);
    json.field("warmup_instr", manifest.warmupInstr);
    json.field("measure_instr", manifest.measureInstr);
    json.field("granularity", manifest.granularity);
    json.field("range_shrink", manifest.rangeShrink);
    json.field("cache_scale", manifest.cacheScale);
    json.field("epoch_cycles", manifest.epochCycles);
    json.field("git_describe", manifest.gitDescribe);
    if (manifest.hasExternTrace) {
        json.field("workload_trace_path", manifest.externTracePath);
        json.field("workload_trace_format",
                   manifest.externTraceFormat);
        json.field("workload_trace_records",
                   manifest.externTraceRecords);
        json.field("workload_trace_crc32",
                   std::uint64_t{manifest.externTraceCrc32});
    }
    if (manifest.volatileFields) {
        json.field("wall_clock_utc", manifest.wallClockUtc);
        json.field("jobs", manifest.jobs);
    }
}

void
writeResultJson(JsonWriter &json, const SimResult &result)
{
    json.beginObject();
    json.field("ipc", result.ipc);
    json.key("core_ipc");
    json.beginArray();
    for (double ipc : result.coreIpc)
        json.value(ipc);
    json.endArray();
    json.field("instructions", result.instructions);
    json.field("elapsed_ns", result.elapsedNs);
    json.field("avg_read_latency_ns", result.avgReadLatencyNs);
    json.field("avg_write_service_ns", result.avgWriteServiceNs);
    json.field("avg_write_twr_ns", result.avgWriteTwrNs);
    json.field("data_reads", result.dataReads);
    json.field("metadata_reads", result.metadataReads);
    json.field("smb_reads", result.smbReads);
    json.field("data_writes", result.dataWrites);
    json.field("metadata_writes", result.metadataWrites);
    json.field("read_energy_pj", result.readEnergyPj);
    json.field("write_energy_pj", result.writeEnergyPj);
    json.field("fnw_flips", result.fnwFlips);
    json.field("fnw_cancelled", result.fnwCancelled);
    json.field("est_counter_diff_mean", result.estCounterDiffMean);
    json.field("estimated_cw_mean", result.estimatedCwMean);
    json.field("accurate_cw_mean", result.accurateCwMean);
    json.field("spill_insertions", result.spillInsertions);
    json.endObject();
}

void
exportRun(const ExperimentConfig &config, SchemeKind scheme,
          const std::string &workload, const System &system,
          const SimResult &result, const WriteTraceSink *trace)
{
    const std::string run = runDirName(scheme, workload);

    if (!config.statsJsonDir.empty()) {
        std::filesystem::path dir =
            ensureRunDir(config.statsJsonDir, run);
        std::ofstream os(dir / "stats.json");
        ladder_assert(os.good(), "cannot write %s",
                      (dir / "stats.json").string().c_str());
        JsonWriter json(os);
        json.beginObject();
        json.field("schema_version", 2);
        json.key("manifest");
        json.beginObject();
        writeManifestFields(json,
                            makeRunManifest(scheme, workload, config));
        json.endObject();
        // The fully-resolved registry view of the configuration, in
        // Manifest scope: output paths and sweep parallelism are
        // omitted so identical configs stay byte-identical.
        json.key("resolved_config");
        experimentRegistry().dumpJson(
            config, json,
            ParamRegistry<ExperimentConfig>::Scope::Manifest);
        json.key("result");
        writeResultJson(json, result);
        json.key("stats");
        json.beginArray();
        for (const StatGroup &group : system.statGroups())
            group.dumpJson(json);
        json.endArray();
        if (config.system.epochCycles > 0) {
            json.key("epochs");
            writeEpochsJson(json, system, config.system.epochCycles);
        }
        json.key("solver");
        writeSolverJson(json, system.solverEffort());
        json.endObject();
        os << "\n";
        ladder_assert(json.balanced(), "unbalanced stats.json writer");
    }

    if (!config.traceOutDir.empty() && trace) {
        if (trace->streaming()) {
            // Streamed incrementally during the run; runOne already
            // called finish(), so the file on disk is complete.
            ladder_assert(
                trace->path() ==
                    traceFilePath(config, scheme, workload).string(),
                "streaming trace path drifted from the canonical "
                "per-cell path");
        } else {
            TraceFormat format =
                traceFormatFromName(config.traceFormat);
            std::filesystem::path path =
                traceFilePath(config, scheme, workload);
            std::filesystem::create_directories(path.parent_path());
            std::ofstream os(path, std::ios::binary);
            ladder_assert(os.good(), "cannot write %s",
                          path.string().c_str());
            switch (format) {
            case TraceFormat::Csv:
                trace->writeCsv(os);
                break;
            case TraceFormat::BinaryV2:
                trace->writeBinaryV2(
                    os, static_cast<std::size_t>(
                            config.traceChunkRecords));
                break;
            }
        }
    }
}

void
exportSweep(const ExperimentConfig &config, const Matrix &matrix)
{
    if (config.statsJsonDir.empty())
        return;
    std::filesystem::create_directories(config.statsJsonDir);
    std::filesystem::path path =
        std::filesystem::path(config.statsJsonDir) / "sweep.json";
    std::ofstream os(path);
    ladder_assert(os.good(), "cannot write %s",
                  path.string().c_str());
    JsonWriter json(os);
    json.beginObject();
    json.field("schema_version", 2);
    json.key("manifest");
    json.beginObject();
    json.field("seed", config.seed);
    json.field("warmup_instr", config.warmupInstr);
    json.field("measure_instr", config.measureInstr);
    json.field("granularity", config.system.tableGranularity);
    json.field("range_shrink", config.system.rangeShrink);
    json.field("cache_scale", config.cacheScale);
    json.field("epoch_cycles", config.system.epochCycles);
    json.field("git_describe", gitDescribeString());
    if (config.volatileManifest) {
        json.field("wall_clock_utc", utcNow());
        json.field("jobs", config.jobs);
    }
    json.endObject();
    json.key("resolved_config");
    experimentRegistry().dumpJson(
        config, json, ParamRegistry<ExperimentConfig>::Scope::Manifest);
    json.key("schemes");
    json.beginArray();
    for (SchemeKind kind : matrix.schemes)
        json.value(schemeKindName(kind));
    json.endArray();
    json.key("workloads");
    json.beginArray();
    for (const auto &workload : matrix.workloads)
        json.value(workload);
    json.endArray();
    json.key("cells");
    json.beginArray();
    for (const auto &workload : matrix.workloads) {
        for (SchemeKind kind : matrix.schemes) {
            json.beginObject();
            json.field("run", runDirName(kind, workload));
            json.field("scheme", schemeKindName(kind));
            json.field("workload", workload);
            json.key("result");
            writeResultJson(json, matrix.at(kind, workload));
            json.endObject();
        }
    }
    json.endArray();
    json.endObject();
    os << "\n";
    ladder_assert(json.balanced(), "unbalanced sweep.json writer");
}

} // namespace ladder
