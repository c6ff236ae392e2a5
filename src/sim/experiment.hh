/**
 * @file
 * The harness every driver runs its cells through: runOne builds,
 * runs and exports one (scheme, workload) cell, runStartGap is runOne
 * under §6.4 wear-leveling, and runMatrixParallel (a sweep) and
 * runVariants (one cell under ablation configs) fan runOne out on a
 * thread pool. Also the speedup metric and the table printer.
 */

#ifndef LADDER_SIM_EXPERIMENT_HH
#define LADDER_SIM_EXPERIMENT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/system.hh"
#include "wear/policy.hh"

namespace ladder
{

/**
 * One per-cell parameter override from a sweep spec's "cells" array:
 * registry assignments applied only to the (scheme, workload) cells
 * that match. "*" matches every scheme / workload. Layering within a
 * run: sweep "params" < matching cells (in spec order) < CLI
 * key=value — see resolveExperiment and runOne.
 */
struct SweepCellOverride
{
    std::string scheme = "*";   //!< scheme display name or "*"
    std::string workload = "*"; //!< workload display name or "*"
    /** Registry key=value assignments, pre-validated at resolve. */
    std::vector<std::pair<std::string, std::string>> params;
};

/**
 * Shared experiment knobs (env LADDER_BENCH_SCALE multiplies sizes).
 *
 * Every field here — and every field of the embedded SystemConfig
 * template and WearPolicy — is declared in the typed parameter
 * registry (sim/config_resolve), which is the single source of truth
 * for names, ranges, and doc strings. Add a field without registering
 * it and it stays unreachable from config files and the CLI.
 */
struct ExperimentConfig
{
    std::uint64_t warmupInstr = 1'500'000;
    std::uint64_t measureInstr = 400'000;
    std::uint64_t seed = 1;
    /**
     * Template for every per-cell SystemConfig built by
     * makeSystemConfig: geometry, crossbar, controller, cache, core,
     * timing-table and scheme parameters set here (e.g. from a config
     * file) reach every run of the sweep. The per-cell fields (scheme,
     * workloads, seed, ...) are overwritten per run.
     */
    SystemConfig system{};
    /** Wear-leveling policy knobs (§6.4 benches and demos). */
    WearPolicy wear{};
    /** Cross-check derived latency surfaces with the full MNA solver
     *  (fig11's former ad-hoc `mna=1` flag). */
    bool checkMna = false;
    /** Print each run's full statistics tree after it (runOne). */
    bool printStats = false;
    /**
     * Scale factor on L2/L3 capacities and working sets (tests use
     * small values so caches reach steady state within short runs).
     */
    double cacheScale = 1.0;
    /**
     * Sweep parallelism for runMatrixParallel: number of concurrent
     * runOne jobs. 0 selects hardware_concurrency; 1 runs the sweep
     * serially on the calling thread. With more than one job the
     * cells with the most programs start first. Results are
     * bit-identical for every value — each run owns its System,
     * Rng, and Stats, so scheduling order cannot leak into the
     * metrics.
     */
    unsigned jobs = 0;
    /**
     * When non-empty, each run writes
     * `<statsJsonDir>/<scheme>__<workload>/stats.json` and the sweep
     * writes `<statsJsonDir>/sweep.json` (see stats_export.hh).
     */
    std::string statsJsonDir;
    /**
     * When non-empty, each run writes its measured-window write/read
     * trace to `<traceOutDir>/<scheme>__<workload>/trace.<ext>`.
     */
    std::string traceOutDir;
    std::string traceFormat = "csv"; //!< "csv" or "bin2"
    /**
     * Stream each run's trace to disk *while it executes*, one chunk
     * at a time as it fills, instead of buffering every record until
     * the end: peak trace memory becomes one chunk of
     * traceChunkRecords regardless of run length, and the emitted
     * bytes are identical to the buffered serialization.
     */
    bool traceStream = false;
    /** Records per chunk for streaming and the "bin2" format. */
    std::uint64_t traceChunkRecords = 64 * 1024;
    /**
     * Include volatile manifest fields (wall clock, job count) in the
     * JSON outputs. Off by default so identical configs produce
     * byte-identical files at any `jobs=` value.
     */
    bool volatileManifest = false;
    /**
     * When non-empty, enable host-side profiling (common/profiler)
     * and write a Chrome-trace-event JSON timeline — loadable in
     * Perfetto or chrome://tracing — to this path after the sweep:
     * per-thread host spans plus, when traceOutDir is also set, a
     * sim-time occupancy track per channel synthesized from the
     * recorded write/read traces. Unset (the default), every
     * instrumented site costs one relaxed atomic load and simulation
     * outputs stay byte-identical.
     */
    std::string profileOut;
    /**
     * Enable profiling and print an aggregate per-span summary to
     * stderr after the sweep, with or without profileOut.
     */
    bool profileSummary = false;
    /**
     * Live-telemetry sampling period in milliseconds (sim/telemetry):
     * every interval a background publisher atomically renames a
     * heartbeat.json snapshot of the metrics registry into the run
     * directory. 0 (the default) disables the publisher, leaving each
     * instrumented site at its one-relaxed-load cost. Manifest-
     * excluded: outputs are byte-identical either way.
     */
    std::uint64_t telemetryIntervalMs = 0;
    /**
     * Directory for heartbeat.json ('' = next to stats-json output).
     */
    std::string telemetryOut;
    /**
     * Consecutive stalled-sim-tick samples before the telemetry
     * watchdog warns with the active profiler spans (0 = off).
     */
    unsigned telemetryWatchdogIntervals = 10;
    /**
     * Final one-line run summary on stderr: "off" or "auto" (print
     * only when stderr is a TTY, keeping CI logs clean).
     */
    std::string progress = "auto";
    /**
     * Resolver-internal (not registry parameters): per-cell overrides
     * from the sweep spec's "cells" array, and the raw CLI key=value
     * assignments re-applied after any matching cell so the command
     * line keeps the last word. Both are filled by resolveExperiment
     * and consumed by runOne.
     */
    std::vector<SweepCellOverride> cellOverrides;
    std::vector<std::pair<std::string, std::string>> cliAssignments;
};

/**
 * Defaults scaled by the LADDER_BENCH_SCALE environment variable
 * (e.g. 4 runs 4x longer windows).
 */
ExperimentConfig defaultExperimentConfig();

/** Resolve a display name to the list of per-core workloads. */
std::vector<std::string> workloadPrograms(const std::string &name);

/** Build the SystemConfig for one (scheme, workload) run. */
SystemConfig makeSystemConfig(SchemeKind scheme,
                              const std::string &workload,
                              const ExperimentConfig &config);

/**
 * Build the per-run trace sink for one (scheme, workload) cell:
 * nullptr when tracing is off, a buffered sink (serialized by
 * exportRun after the run) by default, or — with config.traceStream —
 * a streaming sink that writes each full chunk to the unique per-cell
 * trace path, on the run's own thread, while the run executes.
 * Callers owning the run loop must call finish() on a streaming sink
 * before exportRun.
 */
std::unique_ptr<WriteTraceSink>
makeTraceSink(SchemeKind scheme, const std::string &workload,
              const ExperimentConfig &config);

/**
 * Build, warm up, measure and export one run; with stats=1, print its
 * statistics tree under a `--- <scheme>__<workload> ---` header (one
 * lock keeps concurrent runs' trees whole).
 */
SimResult runOne(SchemeKind scheme, const std::string &workload,
                 const ExperimentConfig &config);

/** Results of a (scheme x workload) sweep. */
struct Matrix
{
    std::vector<SchemeKind> schemes;
    std::vector<std::string> workloads;
    std::map<std::pair<std::string, std::string>, SimResult> results;

    const SimResult &
    at(SchemeKind kind, const std::string &workload) const
    {
        return results.at({schemeKindName(kind), workload});
    }
};

/**
 * Run the full (scheme x workload) sweep, scheduling each runOne as
 * an independent job on config.jobs worker threads (0 = one per
 * hardware thread, 1 = serial on the calling thread, in canonical
 * order).
 *
 * With more than one job, cells are submitted longest first: by
 * descending workloadPrograms() count (a 4-core mix before a 1-core
 * program), ties in canonical order, so the costliest cells never
 * start last on an otherwise idle pool. Results do not
 * depend on that order: they are committed into the Matrix in
 * canonical (workload, scheme) order once every job has finished, so
 * the returned Matrix and every exported file are bit-identical
 * regardless of the job count or scheduling order. Progress is
 * reported on stderr (interactive terminals only) from an atomic
 * completion counter. The first exception, in canonical order, thrown
 * by any run is rethrown here after the remaining jobs drain.
 */
Matrix runMatrixParallel(const std::vector<SchemeKind> &schemes,
                         const std::vector<std::string> &workloads,
                         const ExperimentConfig &config);

/**
 * Run one cell under each of @p variants (an ablation) as runOne jobs
 * on a pool of the first variant's `jobs` workers (0 = one per
 * hardware thread). Results come back in @p variants order and do not
 * depend on the job count; no sweep.json is written.
 */
std::vector<SimResult>
runVariants(SchemeKind scheme, const std::string &workload,
            const std::vector<ExperimentConfig> &variants);

/** Outcome of one Start-Gap wear run (paper §6.4). */
struct WearRun
{
    SimResult result;
    /** Writes per page over the measured window, all channels. */
    std::unordered_map<std::uint64_t, std::uint32_t> pageWrites;
    /** Pages of the System's data region (what Start-Gap levels). */
    std::uint64_t dataPages = 0;
    std::uint64_t gapMoves = 0;
};

/**
 * runOne that also collects the per-page write counts and, when
 * @p leveled, levels every line of the System's data pages with
 * Start-Gap (wear.psi).
 */
WearRun runStartGap(SchemeKind scheme, const std::string &workload,
                    const ExperimentConfig &config, bool leveled);

/**
 * Weighted speedup of @p result over @p baseline: mean of per-core
 * IPC ratios (equals the plain IPC ratio for single programs).
 */
double speedupOver(const SimResult &result, const SimResult &baseline);

/** Fixed-width table printing used by every bench binary. */
class TablePrinter
{
  public:
    explicit TablePrinter(std::vector<std::string> columns,
                          unsigned width = 14);
    void printHeader() const;
    void printRow(const std::string &label,
                  const std::vector<double> &values,
                  int precision = 3) const;

  private:
    std::vector<std::string> columns_;
    unsigned width_;
};

} // namespace ladder

#endif // LADDER_SIM_EXPERIMENT_HH
