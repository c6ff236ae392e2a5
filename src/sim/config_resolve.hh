/**
 * @file
 * Declarative experiment configuration: the LADDER parameter bindings
 * and the layered resolver every bench and driver runs through.
 *
 * experimentRegistry() declares every tunable of ExperimentConfig —
 * including the embedded SystemConfig template (geometry, crossbar,
 * controller, caches, cores), SchemeOptions, and the wear-policy
 * knobs — exactly once, with type, range, and doc string.
 *
 * resolveExperiment() layers the configuration with strict
 * precedence:
 *
 *     compiled defaults  <  config=<file>.json  <  sweep=<file>
 *     "params"           <  CLI key=value (in argv order)
 *
 * Unknown keys, type errors, and out-of-range values are hard errors
 * everywhere (with near-miss suggestions). The resolved config is
 * serialized into every run manifest (see stats_export) and can be
 * dumped as loadable JSON with --dump-config.
 *
 * A sweep-spec file (`sweep=<file>`) declares the cell grid as data:
 *
 *     {
 *       "schemes":   ["baseline", "LADDER-Hybrid"],
 *       "workloads": ["lbm", "astar"],
 *       "params":    { "measure": 40000, "epoch-cycles": 10000 }
 *     }
 *
 * The schemes x workloads product is exactly the grid
 * runMatrixParallel executes; `params` go through the registry like
 * any other layer. CLI `scheme=`/`workload=` selections override the
 * spec's lists.
 *
 * Every driver `main` enters through parseBenchArgs() and leaves
 * through fatalExitCode().
 */

#ifndef LADDER_SIM_CONFIG_RESOLVE_HH
#define LADDER_SIM_CONFIG_RESOLVE_HH

#include <ostream>
#include <string>
#include <vector>

#include "common/param_registry.hh"
#include "sim/experiment.hh"

namespace ladder
{

/** The one registry binding every LADDER tunable to its field. */
const ParamRegistry<ExperimentConfig> &experimentRegistry();

/** Outcome of resolving one driver invocation. */
struct ResolvedExperiment
{
    /** The fully-layered configuration. */
    ExperimentConfig config;
    /** Selected workloads (valid names); empty = caller's default,
     *  which parseBenchArgs fills in. */
    std::vector<std::string> workloads;
    /** Selected schemes; empty = caller's default (as workloads). */
    std::vector<SchemeKind> schemes;
    bool workloadsExplicit = false;
    bool schemesExplicit = false;
    /** --dump-config / --help-config were requested; the caller
     *  prints (dumpEffectiveConfig / registry help) and exits. */
    bool dumpRequested = false;
    bool helpRequested = false;
    /**
     * --help-config output format: "" (fixed-width text listing) or
     * "md" (markdown table via ParamRegistry::helpMarkdown, consumed
     * by scripts/update_experiments_params.py).
     */
    std::string helpFormat;
    /** config=/sweep= file paths, for diagnostics ("" = none). */
    std::string configFile;
    std::string sweepFile;
};

/**
 * Reject a cache geometry the Cache constructor would assert on: each
 * level's capacity must hold a whole, non-zero number of `ways`-line
 * sets. Fatal, naming the offending key; @p source names the layer
 * being checked.
 */
void validateCacheGeometry(const HierarchyParams &caches,
                           const std::string &source);

/**
 * Reject a memory geometry the model cannot hold: the mat groups per
 * bank must be a multiple of MemoryGeometry::subarraySlots. Fatal,
 * naming the offending key; @p source names the layer being checked.
 * (A mat's shape needs no check: xbar.rows is its only free
 * dimension, and makeSystemConfig copies it into the geometry.)
 */
void validateMemoryGeometry(const MemoryGeometry &geo,
                            const std::string &source);

/**
 * Resolve an experiment invocation from @p argv over the @p base
 * defaults. Recognizes the meta keys `config=`, `sweep=`,
 * `scheme[s]=`, `workload[s]=` (CSV lists, validated against the
 * known scheme/workload names) and the flags `--dump-config` /
 * `--help-config`; every other token must be a registered
 * `key=value` or the resolve fails with fatal(). Never exits or
 * prints — callers act on dumpRequested/helpRequested.
 */
ResolvedExperiment resolveExperiment(int argc,
                                     const char *const *argv,
                                     ExperimentConfig base);

/**
 * Resolve a driver's arguments over the defaults in @p cfg, store the
 * result in @p cfg, and fill in the selections the user left out:
 * @p defaultWorkloads (empty = all workloads) and @p defaultSchemes
 * (empty = the paper's seven evaluated schemes). Prints and exits 0
 * for --help-config[=md] / --dump-config.
 */
ResolvedExperiment
parseBenchArgs(int argc, char **argv, ExperimentConfig &cfg,
               std::vector<std::string> defaultWorkloads = {},
               std::vector<SchemeKind> defaultSchemes = {});

/**
 * Exit code for the exception a `main`'s function-try-block is
 * handling in `catch (...)`: 2 for a fatal() anywhere, which has
 * printed its diagnostic. An OS error (std::system_error) or any
 * other exception is rethrown, keeping the uncaught-exception report.
 */
int fatalExitCode();

/**
 * Emit the effective config as one flat JSON object, loadable back
 * via `config=`. This is the --dump-config output (Scope::All: every
 * parameter, including output paths).
 */
void dumpEffectiveConfig(const ExperimentConfig &config,
                         std::ostream &os);

} // namespace ladder

#endif // LADDER_SIM_CONFIG_RESOLVE_HH
