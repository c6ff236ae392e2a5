/**
 * @file
 * Shared machinery for the figure-reproduction benches: check a
 * bench's scheme/workload selections, derive the export-free config
 * of an ablation variant, and normalize a (scheme x workload) Matrix
 * against the baseline, the way the paper's evaluation plots do.
 *
 * Every bench `main` enters through parseBenchArgs and leaves through
 * fatalExitCode (sim/config_resolve), and runs its cells through
 * runOne — runMatrixParallel for the headline matrix, runVariants for
 * a one-cell ablation (sim/experiment). Ablation runs take
 * variantConfig, so they export nothing. Arguments resolve with
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
#include <limits>
#include <string>
#include <vector>

#include "common/log.hh"
#include "sim/config_resolve.hh"
#include "sim/experiment.hh"
#include "trace/workloads.hh"

namespace ladder
{

/**
 * @p cfg for an ablation run: it writes no stats, trace, profile or
 * heartbeat file, so every exported file describes the headline run
 * it is named after.
 */
inline ExperimentConfig
variantConfig(const ExperimentConfig &cfg)
{
    ExperimentConfig variant = cfg;
    variant.statsJsonDir.clear();
    variant.traceOutDir.clear();
    variant.profileOut.clear();
    variant.telemetryIntervalMs = 0;
    return variant;
}

/**
 * Benches that normalize against a reference scheme need it in the
 * sweep: fatal() when an explicit scheme= selection dropped it.
 */
inline void
requireScheme(const ResolvedExperiment &args, SchemeKind kind, const char *why)
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
rejectSchemeOverride(const ResolvedExperiment &args, const char *why)
{
    if (args.schemesExplicit)
        fatal("this bench runs a fixed scheme set (%s); drop scheme=",
              why);
}

/** Benches without a (scheme x workload) sweep reject selections. */
inline void
rejectSweepSelection(const ResolvedExperiment &args, const char *why)
{
    if (args.schemesExplicit || args.workloadsExplicit)
        fatal("this bench has no scheme/workload sweep (%s); drop "
              "scheme=/workload=",
              why);
}

/**
 * Print one table: a row per workload, rowOf(workload) holding one
 * value per scheme column, then an AVG row.
 */
template <typename RowFn>
inline void
printMatrixTable(const Matrix &matrix, RowFn rowOf, int precision)
{
    std::vector<std::string> columns;
    for (SchemeKind kind : matrix.schemes)
        columns.push_back(schemeKindName(kind));
    TablePrinter printer(columns);
    printer.printHeader();
    std::vector<double> sums(matrix.schemes.size(), 0.0);
    for (const auto &workload : matrix.workloads) {
        const std::vector<double> row = rowOf(workload);
        for (std::size_t s = 0; s < row.size(); ++s)
            sums[s] += row[s];
        printer.printRow(workload, row, precision);
    }
    for (auto &sum : sums)
        sum /= static_cast<double>(matrix.workloads.size());
    printer.printRow("AVG", sums, precision);
}

/**
 * Print a normalized table, where each value is
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
    printMatrixTable(
        matrix,
        [&](const std::string &workload) {
            const SimResult &baseRun = matrix.at(baseline, workload);
            const double base = metric(baseRun);
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
            for (SchemeKind kind : matrix.schemes)
                row.push_back(
                    unusable ? std::numeric_limits<double>::quiet_NaN()
                             : metric(matrix.at(kind, workload)) / base);
            return row;
        },
        precision);
}

/** Print one non-normalized metric table. */
template <typename MetricFn>
inline void
printRawTable(const Matrix &matrix, MetricFn metric,
              int precision = 1)
{
    printMatrixTable(
        matrix,
        [&](const std::string &workload) {
            std::vector<double> row;
            for (SchemeKind kind : matrix.schemes)
                row.push_back(metric(matrix.at(kind, workload)));
            return row;
        },
        precision);
}

} // namespace ladder

#endif // LADDER_BENCH_BENCH_COMMON_HH
