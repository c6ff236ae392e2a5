/**
 * @file
 * Figure 17 reproduction: dynamic memory energy (read + write, at
 * the mat level, including all metadata traffic), normalized to
 * baseline.
 *
 * Paper savings vs baseline: Split-reset 33%, BLP 34%, LADDER-Basic
 * 46%, Est 48%, Hybrid 53% (i.e. 28.8% below BLP).
 */

#include "bench_common.hh"

using namespace ladder;

int
main(int argc, char **argv)
try {
    ExperimentConfig cfg = defaultExperimentConfig();
    ResolvedExperiment args = parseBenchArgs(argc, argv, cfg);
    requireScheme(args, SchemeKind::Baseline,
                  "energy is normalized to the baseline");

    Matrix matrix =
        runMatrixParallel(args.schemes, args.workloads, cfg);

    std::printf("=== Figure 17: normalized dynamic memory energy "
                "(read+write) ===\n\n");
    printNormalizedTable(matrix, SchemeKind::Baseline,
                         [](const SimResult &r) {
                             return r.readEnergyPj + r.writeEnergyPj;
                         });

    std::printf("\n--- write-energy component (normalized) ---\n");
    printNormalizedTable(matrix, SchemeKind::Baseline,
                         [](const SimResult &r) {
                             return r.writeEnergyPj;
                         });

    std::printf("\n--- read-energy component (normalized; includes "
                "SMB/metadata reads) ---\n");
    printNormalizedTable(matrix, SchemeKind::Baseline,
                         [](const SimResult &r) {
                             return r.readEnergyPj;
                         });

    std::printf("\npaper reference (total): Split-reset 0.67, BLP "
                "0.66, LADDER-Basic 0.54, Est 0.52, Hybrid 0.47\n");
    return 0;
} catch (...) {
    return fatalExitCode();
}
