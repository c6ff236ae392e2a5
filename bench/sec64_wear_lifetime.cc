/**
 * @file
 * Section 6.4 reproduction: LADDER with wear-leveling. Runs the
 * baseline and LADDER-Hybrid with and without Start-Gap wear-leveling
 * and reports (i) the performance cost of leveling, (ii) the write
 * traffic increase from metadata maintenance, and (iii) the leveled
 * lifetime of Hybrid relative to the baseline at equal work.
 *
 * Paper: LADDER-Hybrid adds ~3% writes, keeps 97.1% of baseline
 * lifetime under wear-leveling, and loses only ~1% performance when
 * leveling is enabled (still ~44% over baseline).
 */

#include <algorithm>
#include <cstdio>
#include <future>
#include <vector>

#include "bench_common.hh"
#include "common/thread_pool.hh"
#include "wear/lifetime.hh"

using namespace ladder;

int
main(int argc, char **argv)
try {
    ExperimentConfig cfg = defaultExperimentConfig();
    ResolvedExperiment args = parseBenchArgs(argc, argv, cfg, {"lbm"});
    rejectSchemeOverride(
        args, "the study compares baseline vs LADDER-Hybrid");
    if (args.workloads.size() != 1) {
        fatal("this bench runs one workload at a time (got %zu)",
              args.workloads.size());
    }
    const std::string workload = args.workloads.front();

    std::printf("=== Section 6.4: LADDER with wear-leveling (%s) "
                "===\n\n",
                workload.c_str());

    // Four independent runs, so they parallelize like sweep cells.
    // The unleveled pair exports as the <scheme>__<workload> cells;
    // the leveled pair are variants.
    struct Run
    {
        const char *name;
        SchemeKind kind;
        bool leveled;
    };
    const Run runs[] = {
        {"baseline", SchemeKind::Baseline, false},
        {"baseline + Start-Gap", SchemeKind::Baseline, true},
        {"LADDER-Hybrid", SchemeKind::LadderHybrid, false},
        {"LADDER-Hybrid + Start-Gap", SchemeKind::LadderHybrid, true},
    };
    const ExperimentConfig leveledCfg = variantConfig(cfg);
    unsigned jobs = cfg.jobs != 0 ? cfg.jobs
                                  : ThreadPool::defaultJobs();
    ThreadPool pool(std::clamp(jobs, 1u, 4u));
    std::vector<std::future<WearRun>> futures;
    for (const Run &run : runs) {
        futures.push_back(pool.submit([&]() {
            return runStartGap(run.kind, workload,
                               run.leveled ? leveledCfg : cfg,
                               run.leveled);
        }));
    }
    std::vector<WearRun> results;
    for (auto &future : futures)
        results.push_back(future.get());
    const WearRun &baseWl = results[1];
    const WearRun &hybNo = results[2];
    const WearRun &hybWl = results[3];

    // Every run executes the same instructions, so every estimate
    // spans one window (the leveled baseline's) and the leveled
    // lifetimes compare write volume at equal work, not writes per
    // second of each run's own window. The denominator is the fixed
    // data region, not the pages a run happened to touch.
    const double windowSeconds = baseWl.result.elapsedNs * 1e-9;
    auto lifetime = [&](const WearRun &run) {
        return estimateLifetime(run.pageWrites, windowSeconds,
                                run.dataPages, cfg.wear.cellEndurance,
                                cfg.wear.levelingEfficiency);
    };

    std::printf("%-26s %10s %12s %14s %12s\n", "configuration", "IPC",
                "writes", "gap moves", "unevenness");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SimResult &r = results[i].result;
        std::printf("%-26s %10.4f %12llu %14llu %12.1f\n",
                    runs[i].name, r.ipc,
                    static_cast<unsigned long long>(r.dataWrites +
                                                    r.metadataWrites),
                    static_cast<unsigned long long>(results[i].gapMoves),
                    lifetime(results[i]).unevenness);
    }

    double extraWrites =
        (static_cast<double>(hybWl.result.dataWrites +
                             hybWl.result.metadataWrites) /
             static_cast<double>(baseWl.result.dataWrites +
                                 baseWl.result.metadataWrites) -
         1.0) *
        100.0;
    // A run without writes has no lifetime to compare: nan, named,
    // as printNormalizedTable does for a degenerate baseline.
    const char *degenerate = baseWl.result.degenerate ? runs[1].name
                             : hybWl.result.degenerate ? runs[3].name
                                                       : nullptr;
    if (degenerate) {
        std::fprintf(stderr,
                     "warn: %s run is degenerate for workload '%s'; "
                     "relative lifetime is nan\n",
                     degenerate, workload.c_str());
    }
    double perfCost =
        (1.0 - hybWl.result.ipc / hybNo.result.ipc) * 100.0;
    double gainOverBase =
        (hybWl.result.ipc / baseWl.result.ipc - 1.0) * 100.0;

    std::printf("\nextra writes from LADDER metadata: %.1f%% (paper "
                "~3%%)\n",
                extraWrites);
    std::printf("relative lifetime (Hybrid/baseline, leveled): ");
    if (degenerate)
        std::printf("nan");
    else
        std::printf("%.1f%%", 100.0 * lifetime(hybWl).leveledYears /
                                  lifetime(baseWl).leveledYears);
    std::printf(" (paper 97.1%%)\n");
    std::printf("performance cost of wear-leveling on LADDER: "
                "%.1f%% (paper ~1-2%%)\n",
                perfCost);
    std::printf("LADDER-Hybrid + WL gain over baseline + WL: "
                "%.1f%% (paper ~44%%)\n",
                gainOverBase);
    return 0;
} catch (...) {
    return fatalExitCode();
}
