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

    // A line comparing a run without writes has nothing to compare:
    // it prints nan, as printNormalizedTable does for a degenerate
    // baseline, and each such run is named once on stderr.
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].result.degenerate) {
            std::fprintf(stderr,
                         "warn: %s run is degenerate for workload "
                         "'%s'; lines comparing it print nan\n",
                         runs[i].name, workload.c_str());
        }
    }
    auto printLine = [](const char *label, const WearRun &a,
                        const WearRun &b, double percent,
                        const char *paper) {
        std::printf("%s: ", label);
        if (a.result.degenerate || b.result.degenerate)
            std::printf("nan");
        else
            std::printf("%.1f%%", percent);
        std::printf(" (paper %s)\n", paper);
    };
    auto writes = [](const WearRun &run) {
        return static_cast<double>(run.result.dataWrites +
                                   run.result.metadataWrites);
    };

    std::printf("\n");
    printLine("extra writes from LADDER metadata", hybWl, baseWl,
              (writes(hybWl) / writes(baseWl) - 1.0) * 100.0, "~3%");
    printLine("relative lifetime (Hybrid/baseline, leveled)", hybWl,
              baseWl,
              100.0 * lifetime(hybWl).leveledYears /
                  lifetime(baseWl).leveledYears,
              "97.1%");
    printLine("performance cost of wear-leveling on LADDER", hybWl,
              hybNo, (1.0 - hybWl.result.ipc / hybNo.result.ipc) * 100.0,
              "~1-2%");
    printLine("LADDER-Hybrid + WL gain over baseline + WL", hybWl,
              baseWl,
              (hybWl.result.ipc / baseWl.result.ipc - 1.0) * 100.0,
              "~44%");
    return 0;
} catch (...) {
    return fatalExitCode();
}
