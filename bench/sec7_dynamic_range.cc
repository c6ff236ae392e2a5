/**
 * @file
 * Section 7 (and §5) ablations:
 *  - process variability: shrink the RESET-latency dynamic range by
 *    2x and measure how much of LADDER's benefit survives (paper:
 *    ~85% retained on average);
 *  - timing-table granularity: the paper states the 8x8x8 bucketing
 *    costs < 3% versus a finer model.
 */

#include "bench_common.hh"

using namespace ladder;

int
main(int argc, char **argv)
try {
    ExperimentConfig cfg = defaultExperimentConfig();
    ResolvedExperiment args =
        parseBenchArgs(argc, argv, cfg, singleWorkloadNames());
    rejectSchemeOverride(
        args, "the ablation compares baseline vs LADDER-Hybrid");
    const std::vector<std::string> &workloads = args.workloads;

    std::printf("=== Section 7: 2x-shrunk RESET latency dynamic "
                "range ===\n\n");
    std::printf("%-10s %14s %14s %12s\n", "workload", "gain nominal",
                "gain shrunk", "retained %");
    const std::vector<SchemeKind> pair = {SchemeKind::Baseline,
                                          SchemeKind::LadderHybrid};
    ExperimentConfig shrunk = variantConfig(cfg);
    shrunk.system.rangeShrink = 2.0;
    Matrix nominal = runMatrixParallel(pair, workloads, cfg);
    Matrix shrunkM = runMatrixParallel(pair, workloads, shrunk);
    double retainedSum = 0.0;
    for (const auto &workload : workloads) {
        const SimResult &base =
            nominal.at(SchemeKind::Baseline, workload);
        const SimResult &hybrid =
            nominal.at(SchemeKind::LadderHybrid, workload);
        const SimResult &baseS =
            shrunkM.at(SchemeKind::Baseline, workload);
        const SimResult &hybridS =
            shrunkM.at(SchemeKind::LadderHybrid, workload);
        double gain = speedupOver(hybrid, base) - 1.0;
        double gainS = speedupOver(hybridS, baseS) - 1.0;
        double retained = gain > 0.0 ? 100.0 * gainS / gain : 0.0;
        retainedSum += retained;
        std::printf("%-10s %14.3f %14.3f %12.1f\n", workload.c_str(),
                    gain, gainS, retained);
    }
    std::printf("%-10s %29s %12.1f\n", "AVG", "",
                retainedSum / workloads.size());
    std::printf("\npaper reference: ~85%% of the performance "
                "advantage retained under a 2x-shrunk range\n");

    std::printf("\n=== Section 5: timing-table granularity ablation "
                "(LADDER-Hybrid, singles AVG speedup) ===\n\n");
    std::printf("%12s %12s\n", "granularity", "avg speedup");
    for (unsigned granularity : {4u, 8u, 16u}) {
        ExperimentConfig sweep = variantConfig(cfg);
        sweep.system.tableGranularity = granularity;
        const Matrix m = granularity == cfg.system.tableGranularity
                             ? nominal
                             : runMatrixParallel(pair, workloads, sweep);
        double sum = 0.0;
        for (const auto &workload : workloads) {
            sum += speedupOver(m.at(SchemeKind::LadderHybrid,
                                    workload),
                               m.at(SchemeKind::Baseline, workload));
        }
        std::printf("%12u %12.4f\n", granularity,
                    sum / workloads.size());
    }
    std::printf("\npaper reference: the 8-bucket model costs < 3%% "
                "vs a finer-grained one\n");
    return 0;
} catch (...) {
    return fatalExitCode();
}
