/**
 * @file
 * Figure 16 reproduction: system speedup (IPC for single programs,
 * weighted IPC for the 4-program mixes) of every scheme, normalized
 * to the worst-case baseline. Echoes the Table 2 architecture
 * parameters and runs the metadata-cache-size ablation the paper
 * mentions (<2% gain beyond 64KB).
 *
 * Paper averages: Split-reset +13%/+27% (single/multi), BLP
 * +22%/+27%, LADDER-Basic +22%/+50%, Est +5% over Basic, Hybrid
 * +2.8% over Est; LADDER reaches 98% of Oracle; overall ~46% over
 * baseline.
 */

#include "bench_common.hh"

using namespace ladder;

int
main(int argc, char **argv)
try {
    ExperimentConfig cfg = defaultExperimentConfig();
    ResolvedExperiment args = parseBenchArgs(argc, argv, cfg);
    requireScheme(args, SchemeKind::Baseline,
                  "speedup is computed over the baseline");

    SystemConfig sys =
        makeSystemConfig(SchemeKind::Baseline, "astar", cfg);
    std::printf("=== Table 2: architecture parameters ===\n");
    std::printf("  cores                4-wide OoO model, ROB %u, "
                "%u MSHRs, %.1f GHz\n",
                sys.core.robSize, sys.core.maxOutstanding,
                sys.core.freqGhz);
    std::printf("  caches               L1 %zuKB/%u-way, L2 %zuKB/"
                "%u-way, L3 %zuKB/%u-way (scaled; see DESIGN.md)\n",
                sys.caches.l1.sizeBytes / 1024, sys.caches.l1.ways,
                sys.caches.l2.sizeBytes / 1024, sys.caches.l2.ways,
                sys.caches.l3.sizeBytes / 1024, sys.caches.l3.ways);
    std::printf("  memory controller    %u-entry RDQ, %u-entry WRQ, "
                "drain at %.0f%%\n",
                sys.controller.readQueueEntries,
                sys.controller.writeQueueEntries,
                sys.controller.drainHighWatermark * 100);
    std::printf("  metadata cache       %zuKB %u-way, %u-entry spill "
                "buffer\n",
                sys.controller.metadataCacheBytes / 1024,
                sys.controller.metadataCacheWays,
                sys.controller.spillBufferEntries);
    std::printf("  ReRAM                %u channels x %u ranks x %u "
                "banks, %ux%u mats, tCL %.2f tRCD %.2f tBURST %.2f "
                "ns, tWR 29-658 ns (variable)\n\n",
                sys.geometry.channels, sys.geometry.ranksPerChannel,
                sys.geometry.banksPerRank, sys.geometry.matRows,
                MemoryGeometry::matCols, sys.controller.tClNs,
                sys.controller.tRcdNs, sys.controller.tBurstNs);

    std::printf("=== Figure 16: speedup over baseline (weighted IPC "
                "for mixes) ===\n\n");
    Matrix matrix =
        runMatrixParallel(args.schemes, args.workloads, cfg);

    std::vector<std::string> columns;
    for (SchemeKind kind : matrix.schemes)
        columns.push_back(schemeKindName(kind));
    TablePrinter printer(columns);
    printer.printHeader();
    std::vector<double> sums(matrix.schemes.size(), 0.0);
    std::vector<double> singleSums(matrix.schemes.size(), 0.0);
    std::vector<double> mixSums(matrix.schemes.size(), 0.0);
    unsigned singles = 0, mixes = 0;
    for (const auto &workload : matrix.workloads) {
        const SimResult &base =
            matrix.at(SchemeKind::Baseline, workload);
        std::vector<double> row;
        bool isMix = isMixWorkload(workload);
        (isMix ? mixes : singles) += 1;
        for (std::size_t s = 0; s < matrix.schemes.size(); ++s) {
            double speedup = speedupOver(
                matrix.at(matrix.schemes[s], workload), base);
            row.push_back(speedup);
            sums[s] += speedup;
            (isMix ? mixSums[s] : singleSums[s]) += speedup;
        }
        printer.printRow(workload, row);
    }
    std::vector<double> avg = sums, avgSingle = singleSums,
                        avgMix = mixSums;
    for (std::size_t s = 0; s < avg.size(); ++s) {
        avg[s] /= matrix.workloads.size();
        if (singles)
            avgSingle[s] /= singles;
        if (mixes)
            avgMix[s] /= mixes;
    }
    if (singles)
        printer.printRow("AVG-single", avgSingle);
    if (mixes)
        printer.printRow("AVG-mix", avgMix);
    printer.printRow("AVG", avg);

    std::printf("\npaper reference AVG: Split-reset 1.13/1.27 "
                "(single/mix), BLP 1.22/1.27, Basic 1.22/1.50, Est "
                "+5%% over Basic, Hybrid +2.8%% over Est, ~98%% of "
                "Oracle, ~1.46 overall\n");

    // Ablation: metadata cache size (paper: <2% beyond 64KB).
    std::printf("\n--- ablation: LRS-metadata cache size "
                "(LADDER-Hybrid, astar) ---\n");
    std::printf("%10s %12s\n", "size KB", "IPC");
    const std::vector<std::size_t> sizesKb = {16, 32, 64, 128, 256};
    std::vector<ExperimentConfig> variants;
    for (std::size_t kb : sizesKb) {
        variants.push_back(variantConfig(cfg));
        variants.back().system.controller.metadataCacheBytes = kb * 1024;
    }
    std::vector<SimResult> ablation =
        runVariants(SchemeKind::LadderHybrid, "astar", variants);
    for (std::size_t i = 0; i < sizesKb.size(); ++i)
        std::printf("%10zu %12.4f\n", sizesKb[i], ablation[i].ipc);
    return 0;
} catch (...) {
    return fatalExitCode();
}
