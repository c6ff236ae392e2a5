/**
 * @file
 * Shared machinery for the figure-reproduction benches: resolve the
 * layered configuration through the typed parameter registry, run a
 * (scheme x workload) matrix in parallel via runMatrixParallel, and
 * normalize against the baseline, the way the paper's evaluation
 * plots do.
 *
 * Every bench resolves its arguments through sim/config_resolve with
 * strict precedence
 *
 *     compiled defaults < config=<file>.json < sweep=<file> "params"
 *                       < CLI key=value (argv order)
 *
 * plus the selections/flags:
 *   config=<file>.json        flat JSON object of registry params
 *   sweep=<file>.json         {"schemes":[...], "workloads":[...],
 *                              "params":{...}} — the cell grid as data
 *   scheme[s]=a,b / workload[s]=x,y   CSV selections (override the
 *                             sweep spec's lists)
 *   --help-config             list every parameter with type, current
 *                             value, doc, and range; exit
 *   --dump-config             print the effective config as loadable
 *                             JSON; exit
 * Unknown keys, malformed values, and out-of-range values are hard
 * errors with near-miss suggestions. LADDER_BENCH_SCALE still
 * multiplies the default windows (it shapes the compiled defaults,
 * the lowest layer).
 */

#ifndef LADDER_BENCH_BENCH_COMMON_HH
#define LADDER_BENCH_BENCH_COMMON_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "common/log.hh"
#include "sim/config_resolve.hh"
#include "sim/experiment.hh"
#include "trace/workloads.hh"

namespace ladder
{

/** One bench invocation's resolved selections. */
struct BenchArgs
{
    std::vector<std::string> workloads;
    std::vector<SchemeKind> schemes;
    /** Whether the user picked them (vs. the bench's defaults). */
    bool workloadsExplicit = false;
    bool schemesExplicit = false;
};

/**
 * Exit code for the exception a bench `main` is handling, called from
 * its function-try-block's `catch (...)`: 2 for a fatal() anywhere
 * (resolving the arguments, calibrating the circuit, running a cell),
 * which has already printed its diagnostic. An OS error
 * (std::system_error) or any other exception is rethrown, so it keeps
 * the uncaught-exception report.
 */
inline int
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

/**
 * Resolve the common bench arguments into @p cfg through the layered
 * registry resolver. Handles --help-config/--dump-config (print and
 * exit). Empty @p defaultWorkloads means all workloads; empty
 * @p defaultSchemes means the paper's seven evaluated schemes.
 */
inline BenchArgs
parseBenchArgs(int argc, char **argv, ExperimentConfig &cfg,
               std::vector<std::string> defaultWorkloads = {},
               std::vector<SchemeKind> defaultSchemes = {})
{
    ResolvedExperiment resolved =
        resolveExperiment(argc, argv, cfg);
    if (resolved.helpRequested) {
        if (resolved.helpFormat == "md") {
            experimentRegistry().helpMarkdown(std::cout,
                                             resolved.config);
            std::exit(0);
        }
        std::cout << "parameters (key=value; also loadable from "
                     "config= JSON):\n";
        experimentRegistry().help(std::cout, resolved.config);
        std::exit(0);
    }
    if (resolved.dumpRequested) {
        dumpEffectiveConfig(resolved.config, std::cout);
        std::exit(0);
    }
    cfg = resolved.config;
    BenchArgs args;
    args.workloadsExplicit = resolved.workloadsExplicit;
    args.schemesExplicit = resolved.schemesExplicit;
    args.workloads = resolved.workloadsExplicit
                         ? resolved.workloads
                         : (defaultWorkloads.empty()
                                ? allWorkloadNames()
                                : std::move(defaultWorkloads));
    args.schemes = resolved.schemesExplicit
                       ? resolved.schemes
                       : (defaultSchemes.empty()
                              ? allSchemeKinds()
                              : std::move(defaultSchemes));
    return args;
}

/**
 * Benches that normalize against a reference scheme need it in the
 * sweep: fatal() when an explicit scheme= selection dropped it.
 */
inline void
requireScheme(const BenchArgs &args, SchemeKind kind, const char *why)
{
    for (SchemeKind s : args.schemes) {
        if (s == kind)
            return;
    }
    fatal("scheme selection must include '%s' (%s)",
          schemeKindName(kind).c_str(), why);
}

/** Benches with a fixed scheme set reject scheme= overrides. */
inline void
rejectSchemeOverride(const BenchArgs &args, const char *why)
{
    if (args.schemesExplicit)
        fatal("this bench runs a fixed scheme set (%s); drop scheme=",
              why);
}

/** Benches without a (scheme x workload) sweep reject selections. */
inline void
rejectSweepSelection(const BenchArgs &args, const char *why)
{
    if (args.schemesExplicit || args.workloadsExplicit)
        fatal("this bench has no scheme/workload sweep (%s); drop "
              "scheme=/workload=",
              why);
}

/**
 * Print a normalized table: one row per workload plus an AVG row,
 * one column per scheme, where each value is
 * metric(scheme) / metric(baseline) for that workload. A zero
 * baseline metric or a degenerate baseline run (no data reads or no
 * data writes in the measured window) yields nan, with a stderr
 * warning, rather than a silent 0.0 or 1.000, so a broken run cannot
 * masquerade as a perfect or a neutral one.
 */
template <typename MetricFn>
inline void
printNormalizedTable(const Matrix &matrix, SchemeKind baseline,
                     MetricFn metric, int precision = 3)
{
    std::vector<std::string> columns;
    for (SchemeKind kind : matrix.schemes)
        columns.push_back(schemeKindName(kind));
    TablePrinter printer(columns);
    printer.printHeader();
    std::vector<double> sums(matrix.schemes.size(), 0.0);
    for (const auto &workload : matrix.workloads) {
        const SimResult &baseRun = matrix.at(baseline, workload);
        double base = metric(baseRun);
        const char *unusable =
            baseRun.degenerate ? "baseline run is degenerate"
            : base == 0.0      ? "baseline metric is zero"
                               : nullptr;
        if (unusable) {
            std::fprintf(stderr,
                         "warn: %s for workload '%s'; normalized "
                         "values are nan\n",
                         unusable, workload.c_str());
        }
        std::vector<double> row;
        for (std::size_t s = 0; s < matrix.schemes.size(); ++s) {
            double value =
                metric(matrix.at(matrix.schemes[s], workload));
            double normalized =
                unusable ? std::numeric_limits<double>::quiet_NaN()
                         : value / base;
            row.push_back(normalized);
            sums[s] += normalized;
        }
        printer.printRow(workload, row, precision);
    }
    for (auto &sum : sums)
        sum /= static_cast<double>(matrix.workloads.size());
    printer.printRow("AVG", sums, precision);
}

/** Print one non-normalized metric table. */
template <typename MetricFn>
inline void
printRawTable(const Matrix &matrix, MetricFn metric,
              int precision = 1)
{
    std::vector<std::string> columns;
    for (SchemeKind kind : matrix.schemes)
        columns.push_back(schemeKindName(kind));
    TablePrinter printer(columns);
    printer.printHeader();
    std::vector<double> sums(matrix.schemes.size(), 0.0);
    for (const auto &workload : matrix.workloads) {
        std::vector<double> row;
        for (std::size_t s = 0; s < matrix.schemes.size(); ++s) {
            double value =
                metric(matrix.at(matrix.schemes[s], workload));
            row.push_back(value);
            sums[s] += value;
        }
        printer.printRow(workload, row, precision);
    }
    for (auto &sum : sums)
        sum /= static_cast<double>(matrix.workloads.size());
    printer.printRow("AVG", sums, precision);
}

/** The paper's seven evaluated schemes in presentation order. */
inline std::vector<SchemeKind>
paperSchemes()
{
    return allSchemeKinds();
}

} // namespace ladder

#endif // LADDER_BENCH_BENCH_COMMON_HH
