/**
 * @file
 * Workload simulator: run any scheme on any workload (single program
 * or 4-program mix) through the full system — cores, caches, LADDER
 * controller, ReRAM — and dump the headline metrics plus the raw
 * statistics tree. The paper's Figures 12/13/16 are sweeps of exactly
 * this run.
 *
 * Comma-separated lists sweep the full (scheme x workload) matrix in
 * parallel through runMatrixParallel and print an IPC table instead
 * of the single-run details.
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
 * stats=true dumps the full statistics tree after single runs. See
 * EXPERIMENTS.md for the configuration spine and output schema.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "sim/config_resolve.hh"
#include "sim/experiment.hh"
#include "sim/profile_export.hh"
#include "sim/stats_export.hh"
#include "sim/telemetry.hh"

using namespace ladder;

// A fatal() anywhere — resolving the arguments, calibrating the
// circuit, running a cell — exits 2 rather than aborting.
int
main(int argc, char **argv)
try {
    ResolvedExperiment resolved =
        resolveExperiment(argc, argv, defaultExperimentConfig());
    if (resolved.helpRequested) {
        if (resolved.helpFormat == "md") {
            experimentRegistry().helpMarkdown(std::cout,
                                             resolved.config);
            return 0;
        }
        std::cout << "parameters (key=value; also loadable from "
                     "config= JSON):\n";
        experimentRegistry().help(std::cout, resolved.config);
        return 0;
    }
    if (resolved.dumpRequested) {
        dumpEffectiveConfig(resolved.config, std::cout);
        return 0;
    }
    const ExperimentConfig &cfg = resolved.config;
    std::vector<SchemeKind> schemes =
        resolved.schemesExplicit
            ? resolved.schemes
            : std::vector<SchemeKind>{SchemeKind::LadderHybrid};
    std::vector<std::string> workloads =
        resolved.workloadsExplicit
            ? resolved.workloads
            : std::vector<std::string>{"mix-1"};

    if (schemes.size() > 1 || workloads.size() > 1) {
        std::printf("sweeping %zu scheme(s) x %zu workload(s) "
                    "(%llu warmup + %llu measured instructions per "
                    "core)...\n",
                    schemes.size(), workloads.size(),
                    static_cast<unsigned long long>(cfg.warmupInstr),
                    static_cast<unsigned long long>(
                        cfg.measureInstr));
        Matrix matrix = runMatrixParallel(schemes, workloads, cfg);
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

    SchemeKind kind = schemes[0];
    const std::string &workload = workloads[0];
    std::printf("running %s on %s (%llu warmup + %llu measured "
                "instructions per core)...\n",
                schemeKindName(kind).c_str(), workload.c_str(),
                static_cast<unsigned long long>(cfg.warmupInstr),
                static_cast<unsigned long long>(cfg.measureInstr));

    beginProfiling(cfg);
    TelemetryScope telemetry(cfg, 1);
    System system(makeSystemConfig(kind, workload, cfg));
    std::unique_ptr<WriteTraceSink> trace =
        makeTraceSink(kind, workload, cfg);
    if (trace)
        system.attachTraceSink(trace.get());
    SimResult r = system.run(cfg.warmupInstr, cfg.measureInstr);
    if (trace)
        trace->finish();
    telemetry.noteCellDone();
    exportRun(cfg, kind, workload, system, r, trace.get());
    telemetry.stopPublisher();
    exportProfile(cfg, {{kind, workload}});

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

    if (cfg.printStats) {
        std::printf("\n--- full statistics ---\n");
        system.dumpStats(std::cout);
    }
    return 0;
} catch (const std::system_error &) {
    throw; // an OS error, not a fatal(): keep the uncaught report
} catch (const std::runtime_error &) {
    return 2; // fatal() has printed the diagnostic
}
