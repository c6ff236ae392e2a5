/**
 * @file
 * Workload simulator: run any scheme on any workload (single program
 * or 4-program mix) through the full system — cores, caches, LADDER
 * controller, ReRAM — and dump the headline metrics plus the raw
 * statistics tree. The paper's Figures 12/13/16 are sweeps of exactly
 * this run.
 *
 * Every invocation runs through runMatrixParallel: one cell prints
 * its headline metrics, comma-separated lists sweep the full (scheme
 * x workload) matrix in parallel and print an IPC table instead.
 *
 *   ./workload_sim [config=<file>.json] [sweep=<file>.json]
 *                  [scheme=LADDER-Hybrid[,baseline,...]]
 *                  [workload=mix-1[,astar,...]]
 *                  [key=value ...] [--dump-config] [--help-config]
 *
 * Arguments resolve through the typed parameter registry with strict
 * precedence: compiled defaults < config= file < sweep= "params" <
 * CLI key=value. --help-config lists every parameter (warmup,
 * measure, jobs, stats-json, trace-out, epoch-cycles, and the full
 * xbar. / ctrl. / cache. / core. / geom. architecture groups);
 * stats=true prints each run's full statistics tree after it. See
 * EXPERIMENTS.md for the configuration spine and output schema.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "sim/config_resolve.hh"
#include "sim/experiment.hh"

using namespace ladder;

int
main(int argc, char **argv)
try {
    ExperimentConfig cfg = defaultExperimentConfig();
    ResolvedExperiment args = parseBenchArgs(
        argc, argv, cfg, {"mix-1"}, {SchemeKind::LadderHybrid});
    const std::vector<SchemeKind> &schemes = args.schemes;
    const std::vector<std::string> &workloads = args.workloads;
    const bool single = schemes.size() == 1 && workloads.size() == 1;
    if (single)
        std::printf("running %s on %s", schemeKindName(schemes[0]).c_str(),
                    workloads[0].c_str());
    else
        std::printf("sweeping %zu scheme(s) x %zu workload(s)",
                    schemes.size(), workloads.size());
    std::printf(" (%llu warmup + %llu measured instructions per "
                "core)...\n",
                static_cast<unsigned long long>(cfg.warmupInstr),
                static_cast<unsigned long long>(cfg.measureInstr));
    Matrix matrix = runMatrixParallel(schemes, workloads, cfg);

    if (!single) {
        std::vector<std::string> columns;
        for (SchemeKind kind : schemes)
            columns.push_back(schemeKindName(kind));
        TablePrinter printer(columns);
        std::printf("\n--- IPC (core 0) ---\n");
        printer.printHeader();
        for (const auto &workload : workloads) {
            std::vector<double> row;
            for (SchemeKind kind : schemes)
                row.push_back(matrix.at(kind, workload).ipc);
            printer.printRow(workload, row, 4);
        }
        return 0;
    }

    const SimResult &r = matrix.at(schemes[0], workloads[0]);
    std::printf("\n--- headline metrics ---\n");
    for (std::size_t c = 0; c < r.coreIpc.size(); ++c)
        std::printf("core %zu IPC            %10.4f\n", c,
                    r.coreIpc[c]);
    std::printf("avg read latency      %10.1f ns\n",
                r.avgReadLatencyNs);
    std::printf("avg write service     %10.1f ns (tWR %.1f ns)\n",
                r.avgWriteServiceNs, r.avgWriteTwrNs);
    std::printf("demand reads/writes   %10llu / %llu\n",
                static_cast<unsigned long long>(r.dataReads),
                static_cast<unsigned long long>(r.dataWrites));
    std::printf("metadata reads/writes %10llu / %llu, SMB reads "
                "%llu\n",
                static_cast<unsigned long long>(r.metadataReads),
                static_cast<unsigned long long>(r.metadataWrites),
                static_cast<unsigned long long>(r.smbReads));
    std::printf("dynamic energy        %10.2f uJ (reads %.2f, "
                "writes %.2f)\n",
                (r.readEnergyPj + r.writeEnergyPj) * 1e-6,
                r.readEnergyPj * 1e-6, r.writeEnergyPj * 1e-6);
    if (r.estimatedCwMean > 0.0)
        std::printf("estimated C_w (mean)  %10.1f (vs own-content "
                    "accurate: %+.1f)\n",
                    r.estimatedCwMean, r.estCounterDiffMean);

    return 0;
} catch (...) {
    return fatalExitCode();
}
