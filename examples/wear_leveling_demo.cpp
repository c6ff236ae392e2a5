/**
 * @file
 * Wear-leveling demo (paper §6.4): runs LADDER-Hybrid with Start-Gap
 * installed on the controllers, shows the remapping rotating a hot
 * line across physical slots, and compares lifetime estimates with
 * and without leveling.
 *
 *   ./wear_leveling_demo [workload=lbm] [wear.psi=100]
 *                        [config=<file>.json] [key=value ...]
 *
 * Arguments resolve through the typed parameter registry (see
 * --help-config); wear.psi sets the Start-Gap write interval and
 * wear.endurance / wear.leveling-efficiency shape the lifetime
 * estimate.
 */

#include <cstdio>

#include "sim/config_resolve.hh"
#include "sim/experiment.hh"
#include "wear/lifetime.hh"
#include "wear/start_gap.hh"

using namespace ladder;

int
main(int argc, char **argv)
try {
    ExperimentConfig cfg = defaultExperimentConfig();
    ResolvedExperiment args = parseBenchArgs(argc, argv, cfg, {"lbm"});
    if (args.workloads.size() > 1)
        fatal("this demo runs one workload at a time");
    const std::string &workload = args.workloads.front();
    unsigned psi = cfg.wear.startGapPsi;

    // A small standalone illustration first: watch one logical line
    // migrate as the gap rotates.
    std::printf("--- Start-Gap mechanics (8-line region, psi=1) "
                "---\n");
    StartGapRemapper demo(0, 8, 1);
    for (int step = 0; step < 10; ++step) {
        std::printf("  step %2d: logical line 0 -> physical slot "
                    "%llu (start=%llu, gap=%llu)\n",
                    step,
                    static_cast<unsigned long long>(demo.remap(0) /
                                                    lineBytes),
                    static_cast<unsigned long long>(demo.start()),
                    static_cast<unsigned long long>(demo.gap()));
        demo.noteDataWrite(0);
        demo.collectMoves();
    }

    // Now the full system with leveling on the data region.
    std::printf("\nrunning %s under LADDER-Hybrid + Start-Gap "
                "(psi=%u)...\n",
                workload.c_str(), psi);
    WearRun run = runStartGap(SchemeKind::LadderHybrid, workload, cfg,
                              /*leveled=*/true);
    const SimResult &r = run.result;
    LifetimeEstimate est =
        estimateLifetime(run.pageWrites, r.elapsedNs * 1e-9, 0,
                         cfg.wear.cellEndurance,
                         cfg.wear.levelingEfficiency);

    std::printf("\n--- results ---\n");
    std::printf("IPC                    %10.4f\n", r.ipc);
    std::printf("data writes            %10llu (+%llu metadata)\n",
                static_cast<unsigned long long>(r.dataWrites),
                static_cast<unsigned long long>(r.metadataWrites));
    std::printf("gap moves injected     %10llu (~%.2f%% extra "
                "writes)\n",
                static_cast<unsigned long long>(run.gapMoves),
                100.0 * static_cast<double>(run.gapMoves) /
                    static_cast<double>(r.dataWrites));
    std::printf("write unevenness       %10.1f (max/mean page "
                "writes)\n",
                est.unevenness);
    std::printf("est. lifetime          %10.2f years unleveled -> "
                "%.2f years leveled\n",
                est.unleveledYears, est.leveledYears);
    std::printf("\npaper: wear-leveling costs LADDER ~1%% "
                "performance and keeps 97.1%% of baseline "
                "lifetime.\n");
    return 0;
} catch (...) {
    return fatalExitCode();
}
