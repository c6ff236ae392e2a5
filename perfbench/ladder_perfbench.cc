/**
 * @file
 * Host-speed benchmark program for the LADDER simulator.
 *
 * One process runs one benchmark repetition of one workload from a
 * cold start, calling each layer's public entry points in the order
 * workload_sim uses and timing every call:
 *
 *   cachedTimingModel -> System() -> Core::functionalWarmup (all cores)
 *   -> System::run(0, measure) -> WriteTraceSink::finish + exportRun
 *
 * or runMatrixParallel for the sweep workload. It then checks the
 * simulated outputs and writes one JSON result file.
 *
 * With --trace-json the same repetition records spans around every
 * call, and afterwards replays the workload's own instruction stream
 * stage by stage through the trace, cache, ctrl, schemes, mem, reram,
 * circuit and common layers, so each layer gets its own ns/op. Spans
 * are written as a Chrome-trace JSON (Perfetto-loadable).
 *
 *   ladder_perfbench --workload quick-mix --seed 1 --result r.json
 *                    [--mode run|setup] [--out <dir>]
 *                    [--trace-json <file>] [--short]
 *
 * perfbench/run.py drives it; see perfbench/README.md.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "circuit/fastmodel.hh"
#include "common/event_queue.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/profiler.hh"
#include "common/thread_pool.hh"
#include "ctrl/trace_reader.hh"
#include "ctrl/trace_sink.hh"
#include "reram/latency_surface.hh"
#include "reram/timing_tables.hh"
#include "sim/experiment.hh"
#include "sim/profile_export.hh"
#include "sim/stats_export.hh"
#include "sim/system.hh"
#include "trace/workload_frontend.hh"

using namespace ladder;

namespace
{

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** One benchmark workload: what runs, at which windows, with what output. */
struct Workload
{
    std::string name;
    std::vector<SchemeKind> schemes;
    std::vector<std::string> programs; //!< workload_sim display names
    std::uint64_t warmupInstr = 0;
    std::uint64_t measureInstr = 0;
    bool exports = false; //!< streaming bin2 trace + stats.json
    bool sweep = false;   //!< runMatrixParallel over the full matrix
    bool expectWrites = true; //!< degenerate-window check applies
};

/**
 * The benchmark's workloads (see perfbench/README.md for why each was
 * chosen). @p shortWindows shrinks every window for the self-test while
 * keeping the code paths, and keeps enough traffic for data writes.
 */
Workload
workloadByName(const std::string &name, bool shortWindows)
{
    Workload w;
    w.name = name;
    w.schemes = {SchemeKind::LadderHybrid};
    if (name == "quick-mix") {
        w.programs = {"mix-1"};
        w.warmupInstr = shortWindows ? 100'000 : 1'500'000;
        w.measureInstr = shortWindows ? 200'000 : 400'000;
    } else if (name == "lbm-write") {
        w.programs = {"lbm"};
        w.warmupInstr = shortWindows ? 100'000 : 1'500'000;
        w.measureInstr = shortWindows ? 1'000'000 : 20'000'000;
        w.exports = true;
    } else if (name == "mcf-read") {
        w.programs = {"mcf"};
        w.warmupInstr = shortWindows ? 100'000 : 1'500'000;
        w.measureInstr = shortWindows ? 1'000'000 : 10'000'000;
    } else if (name == "sweep") {
        w.schemes = {SchemeKind::Baseline, SchemeKind::Blp,
                     SchemeKind::LadderHybrid};
        w.programs = {"lbm", "mcf", "astar", "mix-1"};
        w.warmupInstr = shortWindows ? 100'000 : 1'500'000;
        w.measureInstr = shortWindows ? 100'000 : 400'000;
        w.sweep = true;
        w.expectWrites = false;
    } else {
        fatal("unknown benchmark workload '%s'", name.c_str());
    }
    return w;
}

ExperimentConfig
experimentFor(const Workload &w, std::uint64_t seed,
              const std::string &outDir)
{
    ExperimentConfig cfg;
    cfg.seed = seed;
    cfg.warmupInstr = w.warmupInstr;
    cfg.measureInstr = w.measureInstr;
    if (w.exports) {
        cfg.statsJsonDir = outDir + "/stats";
        cfg.traceOutDir = outDir + "/trace";
        cfg.traceFormat = "bin2";
        cfg.traceStream = true;
    }
    if (w.sweep)
        cfg.jobs = std::min(4u, ThreadPool::defaultJobs());
    else
        cfg.jobs = 1;
    return cfg;
}

/** Instructions System::run(0, m) executes per core: ramp + window. */
std::uint64_t
timedInstrPerCore(std::uint64_t measure)
{
    return std::max<std::uint64_t>(measure / 10, 5'000) + measure;
}

/** Host seconds since a prof::nowNs() timestamp. */
double
secondsSince(std::uint64_t startNs)
{
    return static_cast<double>(prof::nowNs() - startNs) * 1e-9;
}

/** Keeps replayed results observable so no stage is optimized away. */
volatile double g_sink = 0.0;

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/**
 * In-memory span recorder. Every Span always measures its duration
 * (the untraced run uses the same timers); it is recorded with its
 * parent and run id only when tracing is on. Timestamps share the
 * simulator profiler's clock so both sets of spans land on one
 * timeline.
 */
class Tracer
{
  public:
    struct Record
    {
        std::string name;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        int parent = -1; //!< index into records(), -1 = top level
        int run = 0;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    void setRun(int run) { run_ = run; }
    const std::vector<Record> &records() const { return records_; }

    /** RAII span; end() may close it early and returns seconds. */
    class Span
    {
      public:
        Span(Tracer &tracer, const char *name)
            : tracer_(tracer), startNs_(prof::nowNs())
        {
            if (tracer_.enabled_) {
                index_ = static_cast<int>(tracer_.records_.size());
                Record rec;
                rec.name = name;
                rec.startNs = startNs_;
                rec.parent = tracer_.open_.empty() ? -1
                                                   : tracer_.open_.back();
                rec.run = tracer_.run_;
                tracer_.records_.push_back(std::move(rec));
                tracer_.open_.push_back(index_);
            }
        }

        ~Span() { end(); }

        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

        double
        end()
        {
            if (!open_)
                return seconds_;
            open_ = false;
            std::uint64_t endNs = prof::nowNs();
            seconds_ = static_cast<double>(endNs - startNs_) * 1e-9;
            if (index_ >= 0) {
                tracer_.records_[index_].endNs = endNs;
                tracer_.open_.pop_back();
            }
            return seconds_;
        }

      private:
        Tracer &tracer_;
        std::uint64_t startNs_;
        int index_ = -1;
        bool open_ = true;
        double seconds_ = 0.0;
    };

    /**
     * Self time per "<run>:<span name>": duration minus the durations
     * of its child spans.
     */
    std::map<std::string, double>
    selfSeconds() const
    {
        std::vector<double> self(records_.size());
        for (std::size_t i = 0; i < records_.size(); ++i)
            self[i] = durationS(records_[i]);
        for (const Record &rec : records_) {
            if (rec.parent >= 0)
                self[rec.parent] -= durationS(rec);
        }
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < records_.size(); ++i)
            out[std::to_string(records_[i].run) + ":" +
                records_[i].name] += self[i];
        return out;
    }

    /** Summed duration of top-level spans of @p run. */
    double
    topLevelSeconds(int run) const
    {
        double total = 0.0;
        for (const Record &rec : records_) {
            if (rec.parent < 0 && rec.run == run)
                total += durationS(rec);
        }
        return total;
    }

    static double
    durationS(const Record &rec)
    {
        return static_cast<double>(rec.endNs - rec.startNs) * 1e-9;
    }

  private:
    bool enabled_;
    int run_ = 0;
    std::vector<Record> records_;
    std::vector<int> open_;
};

/**
 * Write the benchmark spans, one track per run id, together with the
 * simulator profiler's own spans as one Chrome-trace JSON through
 * sim/profile_export's writer.
 */
void
writeTraceJson(const std::string &path, const Tracer &tracer,
               std::vector<prof::ThreadLog> logs)
{
    std::map<int, prof::ThreadLog> runs;
    for (const Tracer::Record &rec : tracer.records()) {
        prof::ThreadLog &log = runs[rec.run];
        // Profiler thread ids are small and dense; keep clear of them.
        log.threadId = 1000 + static_cast<std::uint64_t>(rec.run);
        log.name = "perfbench run " + std::to_string(rec.run);
        log.spans.push_back(
            {prof::internName(rec.name), rec.startNs, rec.endNs});
    }
    for (auto &entry : runs)
        logs.push_back(std::move(entry.second));
    std::ofstream os(path);
    if (!os)
        fatal("cannot write trace '%s'", path.c_str());
    writeChromeTrace(os, logs, ExperimentConfig{}, {});
}

// ---------------------------------------------------------------------
// Outputs and checks
// ---------------------------------------------------------------------

/** FNV-1a over the bytes of plain values. */
class Fingerprint
{
  public:
    template <typename T>
    void
    add(const T &value)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        for (unsigned char b : bytes) {
            hash_ ^= b;
            hash_ *= 0x100000001b3ull;
        }
    }

    /** 48 bits, so the value survives a JSON double exactly. */
    double
    value() const
    {
        return static_cast<double>(hash_ >> 16);
    }

    std::uint64_t raw() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Every simulated-time output of one run, hashed. */
Fingerprint
resultFingerprint(const SimResult &r)
{
    Fingerprint fp;
    for (double ipc : r.coreIpc)
        fp.add(ipc);
    fp.add(r.instructions);
    fp.add(r.elapsedNs);
    fp.add(r.avgReadLatencyNs);
    fp.add(r.avgWriteServiceNs);
    fp.add(r.avgWriteTwrNs);
    fp.add(r.dataReads);
    fp.add(r.metadataReads);
    fp.add(r.smbReads);
    fp.add(r.dataWrites);
    fp.add(r.metadataWrites);
    fp.add(r.readEnergyPj);
    fp.add(r.writeEnergyPj);
    fp.add(r.fnwFlips);
    fp.add(r.estimatedCwMean);
    fp.add(r.accurateCwMean);
    fp.add(r.spillInsertions);
    return fp;
}

struct Check
{
    std::string name;
    bool ok = false;
    std::string detail;
};

void
addCheck(std::vector<Check> &checks, std::string name, bool ok,
         std::string detail = "")
{
    checks.push_back({std::move(name), ok, std::move(detail)});
}

/** Per-result output checks shared by single runs and sweep cells. */
void
checkResult(std::vector<Check> &checks, const std::string &label,
            const SimResult &r, unsigned width, bool expectWrites)
{
    bool ipcOk = !r.coreIpc.empty();
    for (double ipc : r.coreIpc)
        ipcOk = ipcOk && ipc > 0.0 && ipc <= static_cast<double>(width);
    addCheck(checks, label + ": 0 < IPC <= core.width", ipcOk);
    if (expectWrites)
        addCheck(checks, label + ": data writes > 0", r.dataWrites > 0,
                 std::to_string(r.dataWrites));
    if (r.dataWrites > 0)
        addCheck(checks, label + ": write service >= tWR",
                 r.avgWriteServiceNs >= r.avgWriteTwrNs,
                 std::to_string(r.avgWriteServiceNs) + " vs " +
                     std::to_string(r.avgWriteTwrNs));
}

/** Read a bin2 trace back through TraceReader and validate it. */
std::vector<CtrlTraceRecord>
readBackTrace(const std::string &path, std::uint64_t expected,
              std::vector<Check> &checks)
{
    std::vector<CtrlTraceRecord> records;
    TraceReader reader;
    bool opened = reader.open(path);
    CtrlTraceRecord rec;
    while (opened && reader.next(rec))
        records.push_back(rec);
    const bool ok = opened && reader.ok() &&
                    reader.format() == TraceFormat::BinaryV2 &&
                    reader.totalRecords() == expected &&
                    records.size() == expected;
    addCheck(checks, "bin2 trace reads back with valid CRCs and count",
             ok,
             reader.ok() ? std::to_string(records.size()) + " of " +
                               std::to_string(expected) + " records"
                         : reader.error());
    return records;
}

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Controller that owns a line address, as the cores route it. */
MemoryController &
route(System &system, Addr lineAddr)
{
    return system.controller(
        system.controller(0).addressMap().decode(lineAddr).channel);
}

// ---------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------

/** Everything one repetition measured; serialized by writeResult. */
struct Outcome
{
    std::map<std::string, double> phases; //!< host seconds per phase
    std::map<std::string, double> sim;    //!< simulated-time outputs
    std::map<std::string, double> layers; //!< traced run only
    std::map<std::string, double> self;   //!< traced run only
    double warmupInstr = 0.0;             //!< all cores (all cells)
    double timedInstr = 0.0;
    double cells = 1.0;
    std::vector<Check> checks;
    std::string traceFile; //!< bin2 trace of an exporting run
    std::uint64_t traceRecords = 0;
};

/** The single-run phases, in workload_sim's order. */
void
runPhases(const Workload &w, SchemeKind kind, const std::string &program,
          const ExperimentConfig &cfg, Tracer &tracer, Outcome &out)
{
    const SystemConfig sc = makeSystemConfig(kind, program, cfg);
    const std::uint64_t start = prof::nowNs();
    {
        Tracer::Span span(tracer, "circuit.table_build");
        cachedTimingModel(sc.crossbar, sc.tableGranularity,
                          sc.rangeShrink);
        out.phases["table_s"] = span.end();
    }
    std::unique_ptr<System> system;
    std::unique_ptr<WriteTraceSink> trace;
    {
        Tracer::Span span(tracer, "sim.ctor");
        system = std::make_unique<System>(sc);
        trace = makeTraceSink(kind, program, cfg);
        if (trace)
            system->attachTraceSink(trace.get());
        out.phases["ctor_s"] = span.end();
    }
    {
        Tracer::Span span(tracer, "cpu.warmup");
        for (unsigned c = 0; c < system->coreCount(); ++c)
            system->core(c).functionalWarmup(cfg.warmupInstr);
        out.phases["warmup_s"] = span.end();
    }
    SimResult result;
    {
        Tracer::Span span(tracer, "sim.timed");
        result = system->run(0, cfg.measureInstr);
        out.phases["timed_s"] = span.end();
    }
    {
        Tracer::Span span(tracer, "sim.export");
        if (trace)
            trace->finish();
        exportRun(cfg, kind, program, *system, result, trace.get());
        out.phases["export_s"] = span.end();
    }
    out.phases["total_s"] = secondsSince(start);

    const double cores = system->coreCount();
    out.warmupInstr = static_cast<double>(cfg.warmupInstr) * cores;
    out.timedInstr =
        static_cast<double>(timedInstrPerCore(cfg.measureInstr)) * cores;
    double ipcSum = 0.0;
    for (double ipc : result.coreIpc)
        ipcSum += ipc;
    double memWrites = 0.0;
    for (unsigned c = 0; c < system->coreCount(); ++c)
        memWrites += system->core(c).memWrites.value();
    const double kinstr =
        static_cast<double>(cfg.measureInstr) * cores / 1000.0;
    out.sim["ipc"] = ipcSum;
    out.sim["read_latency_ns"] = result.avgReadLatencyNs;
    out.sim["write_service_ns"] = result.avgWriteServiceNs;
    out.sim["data_writes"] = static_cast<double>(result.dataWrites);
    out.sim["l3_miss_per_kinstr"] =
        system->hierarchy().l3().misses.value() / kinstr;
    out.sim["writeback_per_kinstr"] = memWrites / kinstr;
    out.sim["fingerprint"] = resultFingerprint(result).value();

    checkResult(out.checks, w.name, result, sc.core.width,
                w.expectWrites);
    if (trace) {
        out.traceFile = traceFilePath(cfg, kind, program).string();
        out.traceRecords = trace->size();
    }
}

/** The sweep workload: the whole matrix through the thread pool. */
void
runSweep(const Workload &w, const ExperimentConfig &cfg, Tracer &tracer,
         Outcome &out)
{
    Matrix matrix;
    {
        Tracer::Span span(tracer, "sim.sweep");
        matrix = runMatrixParallel(w.schemes, w.programs, cfg);
        out.phases["total_s"] = span.end();
    }
    out.cells = static_cast<double>(w.schemes.size() * w.programs.size());
    Fingerprint fp;
    double ipcSum = 0.0, readLat = 0.0, writeServ = 0.0, writes = 0.0;
    out.warmupInstr = 0.0;
    out.timedInstr = 0.0;
    const unsigned width = CoreParams{}.width;
    for (const std::string &program : w.programs) {
        const double cores =
            static_cast<double>(workloadPrograms(program).size());
        for (SchemeKind kind : w.schemes) {
            const SimResult &r = matrix.at(kind, program);
            fp.add(resultFingerprint(r).raw());
            for (double ipc : r.coreIpc)
                ipcSum += ipc;
            readLat += r.avgReadLatencyNs;
            writeServ += r.avgWriteServiceNs;
            writes += static_cast<double>(r.dataWrites);
            out.warmupInstr += static_cast<double>(cfg.warmupInstr) * cores;
            out.timedInstr +=
                static_cast<double>(timedInstrPerCore(cfg.measureInstr)) *
                cores;
            checkResult(out.checks,
                        schemeKindName(kind) + " x " + program, r, width,
                        false);
        }
    }
    out.sim["ipc"] = ipcSum / out.cells;
    out.sim["read_latency_ns"] = readLat / out.cells;
    out.sim["write_service_ns"] = writeServ / out.cells;
    out.sim["data_writes"] = writes;
    out.sim["fingerprint"] = fp.value();
    out.sim["cell_fingerprint.LADDER-Hybrid.mix-1"] =
        resultFingerprint(matrix.at(SchemeKind::LadderHybrid, "mix-1"))
            .value();
}

// ---------------------------------------------------------------------
// Layer replay (traced run only)
// ---------------------------------------------------------------------

/** Counters of the controller stages. */
struct CtrlCounters
{
    std::uint64_t attempts = 0;
    std::uint64_t refused = 0;
    std::uint64_t events = 0;
    std::uint64_t requests = 0;
};

/**
 * Post writebacks into @p system's controllers the way a core does:
 * gated by canAcceptWrite, with the event queue drained by runUntil
 * whenever a queue is full and once at the end.
 */
double
replayWrites(System &system, const std::vector<Writeback> &writebacks,
             CtrlCounters &counters)
{
    EventQueue &events = system.events();
    const std::uint64_t start = prof::nowNs();
    for (const Writeback &wb : writebacks) {
        MemoryController &ctrl = route(system, wb.first);
        ++counters.attempts;
        while (!ctrl.canAcceptWrite()) {
            ++counters.refused;
            ++counters.attempts;
            const std::uint64_t ran = events.runUntil(maxTick);
            counters.events += ran;
            if (ran == 0)
                fatal("write replay stalled with a full queue");
        }
        ctrl.enqueueWrite(wb.first, wb.second);
    }
    counters.events += events.runUntil(maxTick);
    counters.requests += writebacks.size();
    return secondsSince(start);
}

/** Demand reads of every cache miss, gated by canAcceptRead. */
double
replayReads(System &system, const std::vector<Addr> &misses,
            CtrlCounters &counters, std::uint64_t &completed)
{
    EventQueue &events = system.events();
    const std::uint64_t start = prof::nowNs();
    for (Addr addr : misses) {
        MemoryController &ctrl = route(system, addr);
        ++counters.attempts;
        while (!ctrl.canAcceptRead()) {
            ++counters.refused;
            ++counters.attempts;
            const std::uint64_t ran = events.runUntil(maxTick);
            counters.events += ran;
            if (ran == 0)
                fatal("read replay stalled with a full queue");
        }
        ctrl.enqueueRead(addr, [&completed](const LineData &, Tick) {
            ++completed;
        });
    }
    counters.events += events.runUntil(maxTick);
    counters.requests += misses.size();
    return secondsSince(start);
}

/** A System with every core functionally warmed, as run() starts. */
std::unique_ptr<System>
warmSystem(const SystemConfig &sc, std::uint64_t warmupInstr)
{
    auto system = std::make_unique<System>(sc);
    for (unsigned c = 0; c < system->coreCount(); ++c)
        system->core(c).functionalWarmup(warmupInstr);
    return system;
}

double
nsPer(double seconds, std::uint64_t ops)
{
    return ops ? seconds * 1e9 / static_cast<double>(ops) : 0.0;
}

/**
 * Feed the workload's own stream, stage by stage, through each
 * layer's public functions and record ns/op per layer into
 * @p out.layers. @p runTrace is the run's own bin2 trace, when the
 * workload exports one.
 */
void
replayLayers(SchemeKind kind, const std::string &program,
             const ExperimentConfig &cfg, const std::string &outDir,
             const std::string &runTrace, std::uint64_t runTraceRecords,
             Tracer &tracer, Outcome &out)
{
    Tracer::Span replay(tracer, "replay");
    const SystemConfig sc = makeSystemConfig(kind, program, cfg);
    const unsigned cores = static_cast<unsigned>(sc.workloads.size());
    // At most 2M instructions per core of the timed window are
    // replayed, which bounds replay memory and time on long windows.
    const std::uint64_t window =
        std::min<std::uint64_t>(timedInstrPerCore(cfg.measureInstr),
                                2'000'000);

    // trace: each core's stream, past the functional warmup, exactly
    // as the cores consume it.
    std::vector<std::vector<TraceRecord>> records(cores);
    std::vector<Addr> bases;
    {
        Tracer::Span span(tracer, "replay.trace");
        std::uint64_t pulls = 0;
        Addr nextBase = 0;
        const std::uint64_t start = prof::nowNs();
        for (unsigned c = 0; c < cores; ++c) {
            WorkloadInstance inst = makeWorkloadInstance(
                sc.workloads[c], sc.seed * 16 + c, sc.workingSetScale,
                sc.frontend);
            bases.push_back(nextBase);
            nextBase += inst.source->footprintBytes();
            std::uint64_t issued = 0;
            while (issued < cfg.warmupInstr) {
                issued += inst.source->next().nonMemBefore + 1;
                ++pulls;
            }
            const std::uint64_t target = issued + window;
            while (issued < target) {
                TraceRecord rec = inst.source->next();
                issued += rec.nonMemBefore + 1;
                records[c].push_back(rec);
                ++pulls;
            }
        }
        out.layers["trace.next_ns"] = nsPer(secondsSince(start), pulls);
    }

    // Four identically warmed machines, so every stage starts from the
    // state the timed run starts from: `functional` derives the stage
    // inputs, `timed` and `baseline` take the controller writes, and
    // `memory` takes the raw store accesses.
    std::unique_ptr<System> functional, timed, baseline, memory;
    {
        Tracer::Span span(tracer, "replay.warmup");
        functional = warmSystem(sc, cfg.warmupInstr);
        timed = warmSystem(sc, cfg.warmupInstr);
        baseline = warmSystem(
            makeSystemConfig(SchemeKind::Baseline, program, cfg),
            cfg.warmupInstr);
        memory = warmSystem(sc, cfg.warmupInstr);
    }

    // Records round-robin across cores, as the cores interleave.
    auto forEachRecord = [&](auto &&fn) {
        std::size_t longest = 0;
        for (const auto &core : records)
            longest = std::max(longest, core.size());
        for (std::size_t i = 0; i < longest; ++i) {
            for (unsigned c = 0; c < cores; ++c) {
                if (i < records[c].size())
                    fn(c, bases[c] + records[c][i].lineAddr,
                       records[c][i]);
            }
        }
    };

    // Functional pass: the cache stage's misses and dirty L3 victims
    // (the controller's inputs), and the exact bytes each victim leaves
    // in the store after encoding and Flip-N-Write (the store's input).
    std::vector<Addr> misses;
    std::vector<Writeback> writebacks, storeWrites;
    {
        Tracer::Span span(tracer, "replay.functional");
        CacheHierarchy &caches = functional->hierarchy();
        std::vector<Writeback> wbs;
        forEachRecord([&](unsigned c, Addr phys, const TraceRecord &rec) {
            wbs.clear();
            if (!rec.isWrite) {
                if (!caches.read(c, phys, wbs)) {
                    misses.push_back(phys);
                    caches.fill(c, phys,
                                route(*functional, phys)
                                    .functionalRead(phys),
                                wbs);
                }
            } else if (!caches.write(c, phys, rec.storeOffset,
                                     rec.storeData.data(), wbs)) {
                misses.push_back(phys);
                caches.fill(c, phys,
                            route(*functional, phys).functionalRead(phys),
                            wbs);
                caches.write(c, phys, rec.storeOffset,
                             rec.storeData.data(), wbs);
            }
            for (const Writeback &wb : wbs) {
                writebacks.push_back(wb);
                route(*functional, wb.first)
                    .functionalWrite(wb.first, wb.second);
                storeWrites.emplace_back(
                    wb.first, functional->store().read(wb.first));
            }
        });
    }

    // cache: the same accesses on an identically warmed hierarchy,
    // with memory fills replaced by a constant line.
    {
        Tracer::Span span(tracer, "replay.cache");
        CacheHierarchy &caches = timed->hierarchy();
        const LineData fill{};
        std::vector<Writeback> wbs;
        std::uint64_t ops = 0, cacheMisses = 0;
        const std::uint64_t start = prof::nowNs();
        forEachRecord([&](unsigned c, Addr phys, const TraceRecord &rec) {
            wbs.clear();
            ++ops;
            if (!rec.isWrite) {
                if (!caches.read(c, phys, wbs)) {
                    caches.fill(c, phys, fill, wbs);
                    ++ops;
                    ++cacheMisses;
                }
            } else if (!caches.write(c, phys, rec.storeOffset,
                                     rec.storeData.data(), wbs)) {
                caches.fill(c, phys, fill, wbs);
                caches.write(c, phys, rec.storeOffset,
                             rec.storeData.data(), wbs);
                ops += 2;
                ++cacheMisses;
            }
        });
        out.layers["cache.access_ns"] = nsPer(secondsSince(start), ops);
        addCheck(out.checks, "replay: cache stage misses match",
                 cacheMisses == misses.size(),
                 std::to_string(cacheMisses) + " vs " +
                     std::to_string(misses.size()));
    }

    // In the timed run a line's fill always precedes its writeback, so
    // first-touch page materialization belongs to the read path.
    {
        Tracer::Span span(tracer, "replay.prime");
        for (Addr addr : misses) {
            timed->store().read(addr);
            baseline->store().read(addr);
        }
    }

    // ctrl + schemes: writebacks through the workload's scheme and
    // through baseline; both record into buffered trace sinks.
    CtrlCounters counters;
    WriteTraceSink timedSink, baselineSink;
    timed->attachTraceSink(&timedSink);
    baseline->attachTraceSink(&baselineSink);
    {
        Tracer::Span span(tracer, "replay.ctrl_write");
        out.layers["ctrl.write_ns"] = nsPer(
            replayWrites(*timed, writebacks, counters), writebacks.size());
    }
    {
        Tracer::Span span(tracer, "replay.ctrl_write_baseline");
        CtrlCounters ignored;
        const double baselineNs = nsPer(
            replayWrites(*baseline, writebacks, ignored),
            writebacks.size());
        out.layers["schemes.write_extra_ns"] =
            out.layers["ctrl.write_ns"] - baselineNs;
    }
    {
        Tracer::Span span(tracer, "replay.ctrl_read");
        std::uint64_t completed = 0;
        out.layers["ctrl.read_ns"] = nsPer(
            replayReads(*functional, misses, counters, completed),
            misses.size());
        addCheck(out.checks, "replay: every read completes",
                 completed == misses.size(),
                 std::to_string(completed) + " of " +
                     std::to_string(misses.size()));
    }
    out.layers["ctrl.events_per_req"] =
        counters.requests ? static_cast<double>(counters.events) /
                                static_cast<double>(counters.requests)
                          : 0.0;
    out.layers["ctrl.refused_frac"] =
        counters.attempts ? static_cast<double>(counters.refused) /
                                static_cast<double>(counters.attempts)
                          : 0.0;

    // mem: the store alone under the fills, then the encoded writes.
    {
        Tracer::Span span(tracer, "replay.mem");
        BackingStore &store = memory->store();
        unsigned checksum = 0;
        std::uint64_t start = prof::nowNs();
        for (Addr addr : misses)
            checksum += store.read(addr)[0];
        out.layers["mem.store_read_ns"] =
            nsPer(secondsSince(start), misses.size());
        start = prof::nowNs();
        for (const Writeback &wb : storeWrites)
            store.write(wb.first, wb.second);
        out.layers["mem.store_write_ns"] =
            nsPer(secondsSince(start), storeWrites.size());
        g_sink = checksum;
    }

    // Controller records for the trace and reram stages: the run's own
    // bin2 trace when it exported one, else the replay's dispatches
    // written out as bin2. Either way they are read back through
    // TraceReader first.
    std::vector<CtrlTraceRecord> ctrlRecords;
    {
        Tracer::Span span(tracer, "replay.trace_read");
        std::string source = runTrace;
        std::uint64_t expected = runTraceRecords;
        if (source.empty()) {
            source = outDir + "/replay_source.bin";
            std::ofstream os(source, std::ios::binary);
            timedSink.writeBinaryV2(os, 64 * 1024);
            expected = timedSink.size();
        }
        ctrlRecords = readBackTrace(source, expected, out.checks);
    }
    {
        Tracer::Span span(tracer, "replay.trace_record");
        const std::string path = outDir + "/replay_record.bin";
        const std::uint64_t start = prof::nowNs();
        {
            WriteTraceSink sink(path, TraceFormat::BinaryV2);
            for (const CtrlTraceRecord &rec : ctrlRecords)
                sink.record(rec);
            sink.finish();
        }
        out.layers["ctrl.trace_record_ns"] =
            nsPer(secondsSince(start), ctrlRecords.size());
        out.layers["ctrl.trace_bytes_per_record"] =
            ctrlRecords.empty()
                ? 0.0
                : static_cast<double>(std::filesystem::file_size(path)) /
                      static_cast<double>(ctrlRecords.size());
    }
    {
        Tracer::Span span(tracer, "replay.surface");
        const TimingModel &model = cachedTimingModel(
            sc.crossbar, sc.tableGranularity, sc.rangeShrink);
        const LatencySurface &surface = *model.ladderSurface;
        std::vector<SurfaceQuery> queries;
        for (const CtrlTraceRecord &rec : ctrlRecords) {
            if (rec.kind == CtrlTraceRecord::Kind::Write &&
                rec.wordline < surface.rows() &&
                rec.bitline < surface.cols())
                queries.push_back({rec.wordline, rec.bitline,
                                   rec.lrsCount});
        }
        // Repeat the tuple stream to at least 2M lookups.
        double latencySum = 0.0;
        std::uint64_t lookups = 0;
        const std::uint64_t start = prof::nowNs();
        while (!queries.empty() && lookups < 2'000'000) {
            for (const SurfaceQuery &q : queries)
                latencySum +=
                    surface.lookup(q.wordline, q.bitline, q.lrsCount)
                        .latencyNs;
            lookups += queries.size();
        }
        out.layers["reram.surface_lookup_ns"] =
            nsPer(secondsSince(start), lookups);
        g_sink = latencySum;
    }

    // common: event kernel schedule + drain with WriteEntry captures.
    {
        Tracer::Span span(tracer, "replay.evq");
        EventQueue queue;
        WriteEntry entry;
        entry.id = 1;
        std::uint64_t sum = 0, executed = 0;
        constexpr unsigned batch = 1024;
        const std::uint64_t start = prof::nowNs();
        for (unsigned b = 0; b < 256; ++b) {
            for (unsigned i = 0; i < batch; ++i)
                queue.schedule(queue.now() + 1 + (i * 7919u) % batch,
                               [entry, &sum]() { sum += entry.id; });
            executed += queue.runUntil(maxTick);
        }
        out.layers["common.evq_event_ns"] =
            nsPer(secondsSince(start), executed);
        addCheck(out.checks, "replay: every event ran",
                 sum == executed && executed == 256ull * batch);
    }

    // circuit: the fast model at a strided subset of the LADDER table's
    // bucket corners, the operating points the table build solves.
    {
        Tracer::Span span(tracer, "replay.circuit");
        SneakPathModel fast(sc.crossbar);
        const unsigned g = sc.tableGranularity;
        const unsigned rows = static_cast<unsigned>(sc.crossbar.rows);
        const unsigned cols = static_cast<unsigned>(sc.crossbar.cols);
        const unsigned slots =
            cols / static_cast<unsigned>(sc.crossbar.selectedCells);
        std::uint64_t solves = 0;
        double drops = 0.0;
        const std::uint64_t start = prof::nowNs();
        for (unsigned i = 0; i < g * g * g; i += 7) {
            const unsigned wb = i / (g * g), bb = (i / g) % g, cb = i % g;
            ResetCondition cond;
            cond.wordline = (wb + 1) * rows / g - 1;
            cond.byteOffset = (bb + 1) * slots / g - 1;
            cond.wlLrsCount = (cb + 1) * cols / g;
            cond.blLrsCount = rows;
            drops += fast.evaluate(cond).minDropVolts;
            ++solves;
        }
        out.layers["circuit.solve_us"] =
            nsPer(secondsSince(start), solves) * 1e-3;
        g_sink = drops;
    }
}

/**
 * Per-layer metrics of the phase spans and the simulated outputs:
 * phase times from @p phases, simulated outputs from @p out itself.
 */
void
phaseLayers(const Outcome &phases, Outcome &out)
{
    auto phase = [&](const char *key) { return phases.phases.at(key); };
    out.layers["sim.ctor_s"] = phase("ctor_s");
    out.layers["cpu.warmup_s"] = phase("warmup_s");
    out.layers["sim.timed_s"] = phase("timed_s");
    out.layers["sim.export_s"] = phase("export_s");
    out.layers["cache.l3_miss_per_kinstr"] =
        phases.sim.at("l3_miss_per_kinstr");
    out.layers["cache.writeback_per_kinstr"] =
        phases.sim.at("writeback_per_kinstr");
    for (const char *key : {"ipc", "read_latency_ns", "write_service_ns",
                            "data_writes", "fingerprint"})
        out.layers[std::string("sim.") + key] = out.sim.at(key);
}

/**
 * Traced sweep: the cold table build and per-cell wall times come from
 * the simulator's own spans inside the pool; the phase layers and the
 * replay come from the representative cell (LADDER-Hybrid x mix-1) run
 * phase by phase, whose functionalWarmup + run(0, m) must reproduce the
 * sweep's run(w, m) of the same cell exactly.
 */
void
traceSweep(const Workload &w, const ExperimentConfig &cfg,
           const std::string &outDir, Tracer &tracer, Outcome &out)
{
    double tableBuild = 0.0, cellSum = 0.0;
    std::vector<double> cellTimes;
    for (const prof::ThreadLog &log : prof::collect()) {
        for (const prof::Span &span : log.spans) {
            const double s =
                static_cast<double>(span.endNs - span.startNs) * 1e-9;
            if (std::strcmp(span.name, "timing_table_build") == 0)
                tableBuild = std::max(tableBuild, s);
            else if (std::strncmp(span.name, "run ", 4) == 0)
                cellTimes.push_back(s);
        }
    }
    for (double s : cellTimes)
        cellSum += s;
    std::sort(cellTimes.begin(), cellTimes.end());
    out.layers["circuit.table_build_s"] = tableBuild;
    out.layers["sim.cell_s"] =
        cellTimes.empty() ? 0.0 : cellTimes[cellTimes.size() / 2];
    out.layers["common.pool_efficiency"] =
        cellSum /
        (static_cast<double>(cfg.jobs) * out.phases.at("total_s"));
    addCheck(out.checks, "sweep: one span per cell",
             cellTimes.size() == static_cast<std::size_t>(out.cells));

    tracer.setRun(2);
    Outcome cell;
    ExperimentConfig cellCfg = cfg;
    cellCfg.jobs = 1;
    runPhases(w, SchemeKind::LadderHybrid, "mix-1", cellCfg, tracer, cell);
    addCheck(out.checks,
             "sweep cell == phase-by-phase run (LADDER-Hybrid x mix-1)",
             cell.sim.at("fingerprint") ==
                 out.sim.at("cell_fingerprint.LADDER-Hybrid.mix-1"));
    phaseLayers(cell, out);
    tracer.setRun(3);
    replayLayers(SchemeKind::LadderHybrid, "mix-1", cellCfg, outDir, "", 0,
                 tracer, out);
}

// ---------------------------------------------------------------------
// Result file
// ---------------------------------------------------------------------

void
writeNumberMap(JsonWriter &json, const std::string &key,
               const std::map<std::string, double> &values)
{
    json.key(key);
    json.beginObject();
    for (const auto &kv : values)
        json.field(kv.first, kv.second);
    json.endObject();
}

void
writeResult(const std::string &path, const std::string &workload,
            std::uint64_t seed, const std::string &mode,
            const Outcome &out)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write result '%s'", path.c_str());
    JsonWriter json(os);
    json.beginObject();
    json.field("workload", workload);
    json.field("seed", seed);
    json.field("mode", mode);
    json.field("peak_rss_mb", peakRssMb());
    json.field("warmup_instr", out.warmupInstr);
    json.field("timed_instr", out.timedInstr);
    json.field("cells", out.cells);
    writeNumberMap(json, "phases", out.phases);
    writeNumberMap(json, "sim", out.sim);
    writeNumberMap(json, "layers", out.layers);
    writeNumberMap(json, "self_s", out.self);
    json.key("checks");
    json.beginArray();
    for (const Check &check : out.checks) {
        json.beginObject();
        json.field("name", check.name);
        json.field("ok", check.ok);
        json.field("detail", check.detail);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    os << "\n";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: ladder_perfbench --workload <name> --seed <n> "
                 "--result <file> [--mode run|setup] [--out <dir>] "
                 "[--trace-json <file>] [--short]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workloadName, resultPath, mode = "run", outDir = ".",
                                          traceJson;
    std::uint64_t seed = 1;
    bool shortWindows = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::runtime_error("missing value for " + arg);
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                workloadName = next();
            else if (arg == "--seed")
                seed = std::stoull(next());
            else if (arg == "--result")
                resultPath = next();
            else if (arg == "--mode")
                mode = next();
            else if (arg == "--out")
                outDir = next();
            else if (arg == "--trace-json")
                traceJson = next();
            else if (arg == "--short")
                shortWindows = true;
            else
                return usage();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "ladder_perfbench: %s\n", e.what());
            return usage();
        }
    }
    if (workloadName.empty() || resultPath.empty() ||
        (mode != "run" && mode != "setup"))
        return usage();

    try {
        const Workload w = workloadByName(workloadName, shortWindows);
        const ExperimentConfig cfg = experimentFor(w, seed, outDir);
        std::filesystem::create_directories(outDir);
        Tracer tracer(!traceJson.empty());
        if (tracer.enabled())
            prof::enable();
        Outcome out;

        if (mode == "setup") {
            // Cold set-up of the first cell runMatrixParallel runs.
            const SystemConfig sc =
                makeSystemConfig(w.schemes[0], w.programs[0], cfg);
            Tracer::Span span(tracer, "setup");
            cachedTimingModel(sc.crossbar, sc.tableGranularity,
                              sc.rangeShrink);
            System system(sc);
            out.phases["setup_s"] = span.end();
        } else if (w.sweep) {
            tracer.setRun(1);
            runSweep(w, cfg, tracer, out);
            if (tracer.enabled())
                traceSweep(w, cfg, outDir, tracer, out);
        } else {
            tracer.setRun(1);
            runPhases(w, w.schemes[0], w.programs[0], cfg, tracer, out);
            if (!out.traceFile.empty()) {
                // Every exporting repetition validates its trace.
                std::vector<Check> traceChecks;
                readBackTrace(out.traceFile, out.traceRecords,
                              traceChecks);
                out.checks.insert(out.checks.end(), traceChecks.begin(),
                                  traceChecks.end());
            }
            if (tracer.enabled()) {
                phaseLayers(out, out);
                out.layers["circuit.table_build_s"] =
                    out.phases["table_s"];
                out.layers["sim.cell_s"] = out.phases["total_s"];
                out.layers["common.pool_efficiency"] = 1.0;
                tracer.setRun(2);
                replayLayers(w.schemes[0], w.programs[0], cfg, outDir,
                             out.traceFile, out.traceRecords, tracer,
                             out);
            }
        }

        if (tracer.enabled()) {
            prof::disable();
            writeTraceJson(traceJson, tracer, prof::collect());
            out.self = tracer.selfSeconds();
            const double total = out.phases["total_s"];
            out.layers["bench.span_coverage"] =
                total > 0.0 ? tracer.topLevelSeconds(1) / total : 0.0;
        }
        writeResult(resultPath, w.name, seed, mode, out);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ladder_perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
