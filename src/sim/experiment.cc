#include "experiment.hh"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>

#include "common/log.hh"
#include "common/profiler.hh"
#include "common/thread_pool.hh"
#include "sim/config_resolve.hh"
#include "sim/profile_export.hh"
#include "sim/stats_export.hh"
#include "sim/telemetry.hh"
#include "trace/workloads.hh"
#include "wear/start_gap.hh"

namespace ladder
{

ExperimentConfig
defaultExperimentConfig()
{
    // Read the environment once under C++11 magic-static init so
    // sweep workers calling this concurrently never race on getenv.
    static const double benchScale = []() {
        if (const char *env = std::getenv("LADDER_BENCH_SCALE")) {
            double scale = std::atof(env);
            if (scale > 0.0)
                return scale;
        }
        return 1.0;
    }();
    ExperimentConfig config;
    config.warmupInstr = static_cast<std::uint64_t>(
        config.warmupInstr * benchScale);
    config.measureInstr = static_cast<std::uint64_t>(
        config.measureInstr * benchScale);
    return config;
}

std::vector<std::string>
workloadPrograms(const std::string &name)
{
    if (!isMixWorkload(name))
        return {name};
    for (const auto &mix : mixWorkloads()) {
        if (mix.first == name)
            return mix.second;
    }
    fatal("unknown mix '%s'", name.c_str());
}

SystemConfig
makeSystemConfig(SchemeKind scheme, const std::string &workload,
                 const ExperimentConfig &config)
{
    // Start from the experiment's SystemConfig template so registry
    // overrides (geometry, queues, cache sizes, ...) reach every cell;
    // per-cell fields below overwrite whatever the template held.
    SystemConfig sys = config.system;
    sys.scheme = scheme;
    sys.workloads = workloadPrograms(workload);
    sys.seed = config.seed;
    // xbar.rows is the one key for a mat's wordlines: the address map
    // places pages on exactly the rows the timing surface covers.
    sys.geometry.matRows = static_cast<unsigned>(sys.crossbar.rows);
    if (config.cacheScale != 1.0) {
        auto scale = [&](const CacheParams &cache) {
            // Round down to whole sets and keep an 8 KB minimum (also
            // whole sets), so the scaled size stays way-divisible.
            const std::size_t setBytes =
                static_cast<std::size_t>(cache.ways) * lineBytes;
            const std::size_t scaled = static_cast<std::size_t>(
                static_cast<double>(cache.sizeBytes) * config.cacheScale);
            const std::size_t floor =
                (8 * 1024 + setBytes - 1) / setBytes * setBytes;
            return std::max(scaled / setBytes * setBytes, floor);
        };
        sys.caches.l2.sizeBytes = scale(sys.caches.l2);
        sys.caches.l3.sizeBytes = scale(sys.caches.l3);
        sys.workingSetScale *= config.cacheScale;
    }
    return sys;
}

std::unique_ptr<WriteTraceSink>
makeTraceSink(SchemeKind scheme, const std::string &workload,
              const ExperimentConfig &config)
{
    if (config.traceOutDir.empty())
        return nullptr;
    const bool attribution = config.system.controller.attribution;
    if (!config.traceStream) {
        auto sink = std::make_unique<WriteTraceSink>();
        sink->setAttribution(attribution);
        return sink;
    }
    // Streaming mode opens the (unique, per-cell) output file up
    // front and writes each chunk as it fills while the run executes.
    std::filesystem::path path =
        traceFilePath(config, scheme, workload);
    std::filesystem::create_directories(path.parent_path());
    return std::make_unique<WriteTraceSink>(
        path.string(), traceFormatFromName(config.traceFormat),
        static_cast<std::size_t>(config.traceChunkRecords),
        attribution);
}

/**
 * Layer any matching sweep-spec "cells" overrides (in spec order)
 * over @p config for one (scheme, workload) cell, then re-apply the
 * CLI assignments so the command line keeps the last word. Returns
 * @p config unchanged when no cell matches.
 */
static ExperimentConfig
cellConfig(SchemeKind scheme, const std::string &workload,
           const ExperimentConfig &config)
{
    ExperimentConfig effective = config;
    const std::string schemeName = schemeKindName(scheme);
    bool matched = false;
    for (const SweepCellOverride &cell : config.cellOverrides) {
        if (cell.scheme != "*" && cell.scheme != schemeName)
            continue;
        if (cell.workload != "*" && cell.workload != workload)
            continue;
        matched = true;
        for (const auto &kv : cell.params)
            experimentRegistry().set(effective, kv.first, kv.second,
                                     "sweep cell [" + cell.scheme +
                                         " x " + cell.workload + "]");
    }
    if (matched) {
        for (const auto &kv : config.cliAssignments)
            experimentRegistry().set(effective, kv.first, kv.second,
                                     "command line");
        const std::string source =
            "sweep cell " + runDirName(scheme, workload);
        validateCacheGeometry(effective.system.caches, source);
        validateMemoryGeometry(effective.system.geometry, source);
    }
    return effective;
}

/**
 * The run spine behind runOne and runStartGap. With @p wear set, it
 * also levels the System's data pages with Start-Gap (when
 * @p leveled) and fills in @p wear's page write counts.
 */
static SimResult
runCell(SchemeKind scheme, const std::string &workload,
        const ExperimentConfig &baseConfig, WearRun *wear, bool leveled)
{
    // Per-cell parameter overrides resolve here so every downstream
    // consumer (System, trace sink, stats export) sees the same
    // effective configuration — the per-run manifest's
    // resolved_config therefore reflects the overridden values.
    const ExperimentConfig config =
        cellConfig(scheme, workload, baseConfig);
    // Dynamic per-cell label; interned once per run, null (and free)
    // when profiling is off.
    prof::Scope cellSpan(
        prof::enabled()
            ? prof::internName("run " + runDirName(scheme, workload))
            : nullptr);
    std::unique_ptr<StartGapRemapper> remap; // outlives the System
    System system(makeSystemConfig(scheme, workload, config));
    std::unique_ptr<WriteTraceSink> trace =
        makeTraceSink(scheme, workload, config);
    if (trace)
        system.attachTraceSink(trace.get());
    if (leveled) {
        // The gap is one physical line past the logical ones, so
        // logical lines + gap fill the data pages exactly.
        remap = std::make_unique<StartGapRemapper>(
            0, system.dataPages() * MemoryGeometry::blocksPerPage - 1,
            config.wear.startGapPsi);
        system.setRemapper(remap.get());
    }
    SimResult result =
        system.run(config.warmupInstr, config.measureInstr);
    if (trace)
        trace->finish();
    exportRun(config, scheme, workload, system, result, trace.get());
    if (config.printStats) {
        std::ostringstream tree;
        system.dumpStats(tree);
        static std::mutex printMutex;
        std::lock_guard<std::mutex> lock(printMutex);
        std::cout << "\n--- " << runDirName(scheme, workload) << " ---\n"
                  << tree.str() << std::flush;
    }
    if (wear) {
        wear->dataPages = system.dataPages();
        wear->gapMoves = remap ? remap->gapMoves() : 0;
        for (unsigned ch = 0; ch < system.channels(); ++ch)
            for (const auto &[page, writes] :
                 system.controller(ch).pageWriteCounts())
                wear->pageWrites[page] += writes;
    }
    return result;
}

SimResult
runOne(SchemeKind scheme, const std::string &workload,
       const ExperimentConfig &config)
{
    return runCell(scheme, workload, config, nullptr, false);
}

WearRun
runStartGap(SchemeKind scheme, const std::string &workload,
            const ExperimentConfig &config, bool leveled)
{
    WearRun out;
    out.result = runCell(scheme, workload, config, &out, leveled);
    return out;
}

Matrix
runMatrixParallel(const std::vector<SchemeKind> &schemes,
                  const std::vector<std::string> &workloads,
                  const ExperimentConfig &config)
{
    beginProfiling(config);

    Matrix matrix;
    matrix.schemes = schemes;
    matrix.workloads = workloads;

    struct Job
    {
        SchemeKind scheme;
        std::string workload;
    };
    std::vector<Job> plan;
    for (const auto &workload : workloads)
        for (SchemeKind kind : schemes)
            plan.push_back({kind, workload});
    const std::size_t total = plan.size();

    unsigned jobs = config.jobs != 0 ? config.jobs
                                     : ThreadPool::defaultJobs();
    if (total < jobs)
        jobs = static_cast<unsigned>(total);
    if (jobs == 0)
        jobs = 1;

    // Live telemetry: heartbeat publisher, sweep-progress metrics,
    // and the final progress= summary line (all off by default).
    TelemetryScope telemetry(config, total);

    // Progress only on interactive terminals; keep piped/teed output
    // free of carriage-return noise.
    const bool interactive = isatty(fileno(stderr));
    std::atomic<std::size_t> done{0};
    std::mutex progressMutex;
    auto report = [&](const Job &job) {
        std::size_t n = ++done;
        telemetry.noteCellDone();
        if (!interactive)
            return;
        std::lock_guard<std::mutex> lock(progressMutex);
        std::fprintf(stderr, "\r[%zu/%zu] %-14s %-10s", n, total,
                     schemeKindName(job.scheme).c_str(),
                     job.workload.c_str());
        std::fflush(stderr);
    };

    // Each slot is owned by exactly one job until the barrier below,
    // then committed into the map in canonical (workload, scheme)
    // order so the result is independent of completion order.
    std::vector<SimResult> slots(total);
    if (jobs <= 1) {
        for (std::size_t i = 0; i < total; ++i) {
            slots[i] = runOne(plan[i].scheme, plan[i].workload,
                              config);
            report(plan[i]);
        }
    } else {
        // Longest first: the pool runs jobs FIFO, so submitting the
        // cells with the most programs first keeps a multi-core mix
        // cell from starting last while the other workers idle. Ties
        // keep canonical order. Only the start order changes: each
        // job still owns slot i.
        std::vector<std::size_t> programs(total);
        for (std::size_t i = 0; i < total; ++i)
            programs[i] = workloadPrograms(plan[i].workload).size();
        std::vector<std::size_t> order(total);
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::stable_sort(order.begin(), order.end(),
                         [&](std::size_t a, std::size_t b) {
                             return programs[a] > programs[b];
                         });
        ThreadPool pool(jobs);
        std::vector<std::future<void>> futures(total);
        for (std::size_t i : order) {
            futures[i] = pool.submit([&, i]() {
                slots[i] = runOne(plan[i].scheme, plan[i].workload,
                                  config);
                report(plan[i]);
            });
        }
        // get() walks canonical order and rethrows the first failed
        // cell's exception, matching the serial path; every job has
        // finished by the time the pool's futures resolve, so no slot
        // is written afterwards.
        for (auto &future : futures)
            future.get();
    }
    if (interactive)
        std::fprintf(stderr, "\r%60s\r", "");

    for (std::size_t i = 0; i < total; ++i) {
        matrix.results[{schemeKindName(plan[i].scheme),
                        plan[i].workload}] = std::move(slots[i]);
    }
    // Publisher off before profile export: collect() requires every
    // recording thread (the publisher included) to be quiescent.
    telemetry.stopPublisher();
    // After the barrier: the sweep index is written exactly once, in
    // canonical order, so it cannot depend on completion order.
    exportSweep(config, matrix);
    if (profilingRequested(config)) {
        std::vector<ProfileCell> cells;
        for (std::size_t i = 0; i < total; ++i)
            cells.push_back({plan[i].scheme, plan[i].workload});
        exportProfile(config, cells);
    }
    return matrix;
}

std::vector<SimResult>
runVariants(SchemeKind scheme, const std::string &workload,
            const std::vector<ExperimentConfig> &variants)
{
    ThreadPool pool(variants.empty() ? 1 : variants.front().jobs);
    std::vector<std::future<SimResult>> futures;
    for (const ExperimentConfig &variant : variants)
        futures.push_back(pool.submit(
            [&]() { return runOne(scheme, workload, variant); }));
    std::vector<SimResult> results;
    for (auto &future : futures)
        results.push_back(future.get());
    return results;
}

double
speedupOver(const SimResult &result, const SimResult &baseline)
{
    ladder_assert(result.coreIpc.size() == baseline.coreIpc.size(),
                  "speedup: mismatched core counts");
    double acc = 0.0;
    for (std::size_t c = 0; c < result.coreIpc.size(); ++c) {
        ladder_assert(baseline.coreIpc[c] > 0.0,
                      "speedup: zero baseline IPC");
        acc += result.coreIpc[c] / baseline.coreIpc[c];
    }
    return acc / static_cast<double>(result.coreIpc.size());
}

TablePrinter::TablePrinter(std::vector<std::string> columns,
                           unsigned width)
    : columns_(std::move(columns)), width_(width)
{
}

void
TablePrinter::printHeader() const
{
    std::printf("%-10s", "workload");
    for (const auto &column : columns_)
        std::printf(" %*s", width_, column.c_str());
    std::printf("\n");
    unsigned total = 10 + static_cast<unsigned>(columns_.size()) *
                              (width_ + 1);
    for (unsigned i = 0; i < total; ++i)
        std::printf("-");
    std::printf("\n");
}

void
TablePrinter::printRow(const std::string &label,
                       const std::vector<double> &values,
                       int precision) const
{
    std::printf("%-10s", label.c_str());
    for (double value : values)
        std::printf(" %*.*f", width_, precision, value);
    std::printf("\n");
}

} // namespace ladder
