/**
 * @file
 * Latency explorer: an interactive-style tool for a memory-controller
 * designer tuning the write timing tables. Evaluates the crossbar
 * circuit model at user-chosen operating points and prints the
 * bucketed table entry LADDER would actually use next to the exact
 * circuit answer — i.e. how much margin the 8x8x8 bucketing costs.
 *
 *   ./latency_explorer [wl=<0-511>] [bl=<0-511>] [count=<0-512>]
 *                      [granularity=<1-64>] [sweep=wl|bl|count]
 *   ./latency_explorer --help-config   (every key with its range)
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "circuit/fastmodel.hh"
#include "common/param_registry.hh"
#include "reram/timing_tables.hh"
#include "sim/config_resolve.hh"

using namespace ladder;

namespace
{

/** latency_explorer's key=value options. */
struct ExplorerOptions
{
    unsigned wl = 256;
    unsigned bl = 256;
    unsigned count = 128;
    unsigned granularity = 8;
    std::string sweep = "count";
};

#define EXPLORER_FIELD(field) \
    [](ExplorerOptions &o) -> decltype(o.field) & { return o.field; }

/** Ranges follow the default crossbar the explorer evaluates. */
ParamRegistry<ExplorerOptions>
explorerRegistry(const CrossbarParams &params)
{
    const auto rows = static_cast<unsigned>(params.rows);
    const auto cols = static_cast<unsigned>(params.cols);
    ParamRegistry<ExplorerOptions> reg;
    reg.addInt<unsigned>("wl", EXPLORER_FIELD(wl),
                         "Wordline of the single point", 0, rows - 1);
    reg.addInt<unsigned>("bl", EXPLORER_FIELD(bl),
                         "Bitline of the single point", 0, cols - 1);
    reg.addInt<unsigned>("count", EXPLORER_FIELD(count),
                         "Wordline LRS count of the single point", 0,
                         cols);
    reg.addInt<unsigned>("granularity", EXPLORER_FIELD(granularity),
                         "WL/BL buckets per timing-table axis", 1, 64);
    reg.addChoice("sweep", EXPLORER_FIELD(sweep), "Axis to sweep",
                  {"wl", "bl", "count"});
    return reg;
}

void
evaluatePoint(const TimingModel &model, const SneakPathModel &fast,
              unsigned wl, unsigned bl, unsigned count)
{
    ResetCondition cond;
    cond.wordline = wl;
    cond.byteOffset = bl / 8;
    cond.wlLrsCount = count;
    cond.blLrsCount = static_cast<unsigned>(model.params.rows);
    ResetEvaluation eval = fast.evaluate(cond);
    double exact = model.law.latencyNs(eval.minDropVolts);
    const TimingEntry &entry = model.ladderSurface->lookup(wl, bl, count);
    std::printf("  wl=%3u bl=%3u C=%3u | Vd=%.3f V | exact %6.1f ns"
                " | table %6.1f ns | margin %+5.1f ns\n",
                wl, bl, count, eval.minDropVolts, exact,
                entry.latencyNs, entry.latencyNs - exact);
}

} // namespace

int
main(int argc, char **argv)
try {
    CrossbarParams params;
    const ParamRegistry<ExplorerOptions> reg = explorerRegistry(params);
    ExplorerOptions opts;
    const std::vector<std::string> positional =
        reg.applyArgs(opts, argc, argv);
    if (positional.size() == 1 && positional[0] == "--help-config") {
        reg.help(std::cout, ExplorerOptions{});
        return 0;
    }
    if (!positional.empty()) {
        std::fprintf(stderr,
                     "usage: latency_explorer [wl=N] [bl=N] [count=N] "
                     "[granularity=N] [sweep=wl|bl|count]\n");
        return 2;
    }
    const unsigned wl = opts.wl;
    const unsigned bl = opts.bl;
    const unsigned count = opts.count;
    const unsigned granularity = opts.granularity;
    const std::string &sweep = opts.sweep;

    const TimingModel &model = cachedTimingModel(params, granularity);
    SneakPathModel fast(params);

    std::printf("LADDER latency explorer — %ux%u crossbar, "
                "granularity %u, envelope [%.0f, %.0f] ns\n\n",
                (unsigned)params.rows, (unsigned)params.cols,
                granularity, model.law.fastNs, model.law.slowNs);

    if (sweep == "wl") {
        std::printf("sweeping wordline location (bl=%u, C=%u):\n", bl,
                    count);
        for (unsigned v = 0; v < params.rows; v += 64)
            evaluatePoint(model, fast, v + 63, bl, count);
    } else if (sweep == "bl") {
        std::printf("sweeping bitline location (wl=%u, C=%u):\n", wl,
                    count);
        for (unsigned v = 0; v < params.cols; v += 64)
            evaluatePoint(model, fast, wl, v + 63, count);
    } else {
        std::printf("sweeping WL LRS count (wl=%u, bl=%u):\n", wl,
                    bl);
        for (unsigned v = 0; v <= params.cols; v += 64)
            evaluatePoint(model, fast, wl, bl, v);
    }

    std::printf("\nsingle point requested on the command line:\n");
    evaluatePoint(model, fast, wl, bl, count);
    std::printf("\ntiming-table on-chip storage at this granularity: "
                "%zu B\n",
                model.ladderSurface->storageBytes());
    return 0;
} catch (...) {
    return fatalExitCode();
}
