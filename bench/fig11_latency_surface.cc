/**
 * @file
 * Figure 11 reproduction: the derived RESET latency at every WL/BL
 * location bucket for the two extreme wordline data patterns — (a)
 * all '0's (C_lrs bucket 0) and (b) all '1's (C_lrs bucket 7). These
 * are two of the eight 8x8 sub-tables the memory controller holds.
 *
 * Pass mna=true to additionally cross-check a few surface corners
 * with the full MNA solver (slower). The crossbar circuit is
 * configurable through the registry's xbar.* parameters.
 */

#include <cstdio>
#include <future>
#include <vector>

#include "bench_common.hh"
#include "circuit/mna.hh"
#include "common/thread_pool.hh"
#include "reram/timing_tables.hh"

using namespace ladder;

namespace
{

void
printSurface(const LatencySurface &table, unsigned contentBucket)
{
    std::printf("%8s", "WL\\BL");
    for (unsigned bb = 0; bb < table.blBuckets(); ++bb)
        std::printf(" %7u", (bb + 1) * 64);
    std::printf("\n");
    for (unsigned wb = 0; wb < table.wlBuckets(); ++wb) {
        std::printf("%8u", (wb + 1) * 64);
        for (unsigned bb = 0; bb < table.blBuckets(); ++bb)
            std::printf(" %7.1f",
                        table.at(wb, bb, contentBucket).latencyNs);
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
try {
    ExperimentConfig cfg = defaultExperimentConfig();
    ResolvedExperiment args = parseBenchArgs(argc, argv, cfg);
    rejectSweepSelection(
        args, "the surfaces come from one crossbar model");

    const CrossbarParams &params = cfg.system.crossbar;
    const TimingModel &model = cachedTimingModel(params);

    std::printf("=== Figure 11: RESET latency (ns) vs WL/BL location "
                "===\n");
    std::printf("law: t = %.4g * exp(-%.3f * |Vd|) ns, envelope "
                "[%.0f, %.0f] ns\n",
                model.law.cNs, model.law.kPerVolt, model.law.fastNs,
                model.law.slowNs);
    std::printf("calibration drops: best %.3f V, worst %.3f V\n\n",
                model.bestDropVolts, model.worstDropVolts);

    std::printf("--- (a) WL data pattern all '0's (C_lrs bucket "
                "<0-64>) ---\n");
    const LatencySurface &ladder = *model.ladderSurface;
    printSurface(ladder, 0);
    std::printf("\n--- (b) WL data pattern all '1's (C_lrs bucket "
                "<448-512>) ---\n");
    printSurface(ladder, ladder.contentBuckets() - 1);

    std::printf("\npaper reference: (a) tops out near ~300-650 ns at "
                "the far corner, (b) reaches ~700 ns; both grow "
                "monotonically away from the drivers\n");

    if (cfg.checkMna) {
        std::printf("\n--- full-MNA spot checks (64x64 crossbar) "
                    "---\n");
        CrossbarParams small = params;
        small.rows = 64;
        small.cols = 64;
        // Each spot check is an independent full MNA solve; fan the
        // corners out on the pool and print in canonical order.
        CrossbarMna mna(small);
        struct Spot
        {
            unsigned c;
            unsigned wl;
        };
        std::vector<Spot> spots;
        for (unsigned c : {0u, 56u})
            for (unsigned wl : {0u, 63u})
                spots.push_back({c, wl});
        ThreadPool pool;
        std::vector<std::future<ResetEvaluation>> futures;
        for (const Spot &spot : spots) {
            futures.push_back(pool.submit([&mna, spot]() {
                ResetCondition cond{spot.wl, 7, spot.c, 64};
                return mna.evaluate(cond);
            }));
        }
        for (std::size_t i = 0; i < spots.size(); ++i) {
            ResetEvaluation eval = futures[i].get();
            std::printf("  wl=%2u bl=63 c=%2u: Vd=%.4f V -> "
                        "%.1f ns\n",
                        spots[i].wl, spots[i].c, eval.minDropVolts,
                        model.law.latencyNs(eval.minDropVolts));
        }
    }
    return 0;
} catch (...) {
    return fatalExitCode();
}
