#include "system.hh"

#include <ostream>

#include "common/log.hh"
#include "schemes/ladder_schemes.hh"
#include "schemes/split_reset.hh"
#include "trace/data_patterns.hh"

namespace ladder
{

void
applyPaperScale(SystemConfig &config)
{
    config.caches.l2 = CacheParams{4 * 1024 * 1024, 16};
    config.caches.l3 = CacheParams{32 * 1024 * 1024, 16};
    config.workingSetScale = 8.0;
    config.paperScale = true;
}

System::System(const SystemConfig &config) : config_(config)
{
    ladder_assert(config_.workloads.size() == 1 ||
                      config_.workloads.size() == 4,
                  "workloads must be a single program or a 4-mix");
    ladder_assert(config_.crossbar.rows == config_.geometry.matRows &&
                      config_.crossbar.cols == MemoryGeometry::matCols,
                  "the crossbar must be the mat the address map fills "
                  "(build the SystemConfig with makeSystemConfig): the "
                  "timing surface must cover every mapped wordline "
                  "and bitline");

    timing_ = &cachedTimingModel(config_.crossbar,
                                 config_.tableGranularity,
                                 config_.rangeShrink);

    store_ = std::make_unique<BackingStore>(
        config_.geometry, /*trackBitlines=*/true,
        config_.backgroundDensity);

    AddressMap map(config_.geometry);
    std::uint64_t dataPages = static_cast<std::uint64_t>(
        map.totalPages() * config_.dataPageFraction);
    layout_ =
        std::make_shared<MetadataLayout>(config_.geometry, dataPages);
    scheme_ = makeScheme(config_.scheme, *timing_, layout_,
                         config_.schemeOptions);

    for (unsigned ch = 0; ch < config_.geometry.channels; ++ch) {
        controllers_.push_back(std::make_unique<MemoryController>(
            events_, config_.controller, config_.geometry, ch, *store_,
            *timing_, scheme_));
        statGroups_.emplace_back("ctrl" + std::to_string(ch));
    }
    for (unsigned ch = 0; ch < controllers_.size(); ++ch)
        controllers_[ch]->regStats(statGroups_[ch]);

    HierarchyParams cacheParams = config_.caches;
    cacheParams.cores =
        static_cast<unsigned>(config_.workloads.size());
    hierarchy_ = std::make_unique<CacheHierarchy>(cacheParams);

    // Lay the per-core workload regions out page-aligned and disjoint
    // in the data region, and register the first-touch initializers.
    struct Region
    {
        Addr base;
        Addr size;
        std::shared_ptr<DataPatternModel> pattern;
        std::uint64_t seed;
    };
    auto regions = std::make_shared<std::vector<Region>>();

    // Routing must agree with the controller-side physical decode,
    // so any installed wear-leveling remap is applied first (remaps
    // may legitimately cross channels).
    Core::RouteFn route = [this](Addr addr) -> MemoryController & {
        Addr phys = remapper_ ? remapper_->remap(addr) : addr;
        BlockLocation loc =
            controllers_[0]->addressMap().decode(phys);
        return *controllers_[loc.channel];
    };

    Addr nextBase = 0;
    for (unsigned c = 0; c < config_.workloads.size(); ++c) {
        WorkloadInstance inst = makeWorkloadInstance(
            config_.workloads[c], config_.seed * 16 + c,
            config_.workingSetScale, config_.frontend);
        Addr footprint = inst.source->footprintBytes();
        ladder_assert(nextBase + footprint <=
                          dataPages * MemoryGeometry::pageBytes,
                      "workloads exceed the data region");
        regions->push_back(
            {nextBase, footprint,
             std::make_shared<DataPatternModel>(inst.firstTouch),
             inst.seed});
        cores_.push_back(std::make_unique<Core>(
            events_, config_.core, c, std::move(inst.source),
            *hierarchy_, route, nextBase));
        nextBase += footprint;
    }

    // First-touch content is generated in the workload's pattern and
    // stored in its *physical* form (the scheme's encoding applied),
    // as if it had been written through the controller.
    std::shared_ptr<WriteScheme> scheme = scheme_;
    store_->setPageInitializer(
        [regions, scheme](std::uint64_t pageIndex,
                          PageContent &content) {
            Addr byteAddr = pageIndex * MemoryGeometry::pageBytes;
            for (const auto &region : *regions) {
                if (byteAddr < region.base ||
                    byteAddr >= region.base + region.size)
                    continue;
                Rng rng(mix64(pageIndex ^ region.seed));
                for (unsigned b = 0;
                     b < MemoryGeometry::blocksPerPage; ++b) {
                    Addr blockAddr =
                        byteAddr + static_cast<Addr>(b) * lineBytes;
                    content.blocks[b] = scheme->encodeData(
                        blockAddr, region.pattern->generateLine(rng));
                }
                return;
            }
            // Untouched / metadata pages stay zeroed.
        });

    for (auto &ctrl : controllers_) {
        for (auto &core : cores_) {
            Core *corePtr = core.get();
            ctrl->addRetryListener([corePtr]() {
                corePtr->notifyRetry();
            });
        }
    }

    // Core and cache groups follow the controller groups, so the
    // controller stats keep their historical epoch-vector positions.
    for (unsigned c = 0; c < cores_.size(); ++c) {
        statGroups_.emplace_back("core" + std::to_string(c));
        cores_[c]->regStats(statGroups_.back());
    }
    for (unsigned c = 0; c < cores_.size(); ++c) {
        statGroups_.emplace_back("cache" + std::to_string(c));
        StatGroup &group = statGroups_.back();
        hierarchy_->l1(c).regStats(group, "l1_");
        hierarchy_->l2(c).regStats(group, "l2_");
    }
    statGroups_.emplace_back("l3");
    hierarchy_->l3().regStats(statGroups_.back());
}

MemoryController &
System::controller(unsigned channel)
{
    ladder_assert(channel < controllers_.size(),
                  "channel out of range");
    return *controllers_[channel];
}

unsigned
System::channels() const
{
    return static_cast<unsigned>(controllers_.size());
}

void
System::setRemapper(AddressRemapper *remapper)
{
    remapper_ = remapper;
    for (auto &ctrl : controllers_)
        ctrl->setRemapper(remapper);
}

void
System::attachTraceSink(WriteTraceSink *sink)
{
    traceSink_ = sink;
    for (auto &ctrl : controllers_)
        ctrl->setTraceSink(sink);
}

void
System::captureEpoch(Tick when)
{
    EpochSnapshot snap;
    snap.tick = when;
    snap.values.reserve(epochNames_.size());
    for (const auto &group : statGroups_) {
        group.visit([&](const std::string &, double v) {
            snap.values.push_back(v);
        });
    }
    ladder_assert(snap.values.size() == epochNames_.size(),
                  "epoch snapshot arity changed mid-run");
    epochs_.push_back(std::move(snap));
}

void
System::scheduleEpochSnapshot(Tick when, Tick epochTicks,
                              const unsigned *pending)
{
    events_.schedule(when, [this, when, epochTicks, pending]() {
        // Stop once every core has finished its measured window so
        // the event queue can drain; the final partial epoch is not
        // sampled (its interval is shorter than epochCycles).
        if (*pending == 0)
            return;
        captureEpoch(when);
        scheduleEpochSnapshot(when + epochTicks, epochTicks, pending);
    });
}

void
System::resetStats()
{
    for (auto &group : statGroups_)
        group.resetAll();
    for (auto &ctrl : controllers_) {
        ctrl->metadataCache().hits.reset();
        ctrl->metadataCache().misses.reset();
        ctrl->metadataCache().insertions.reset();
        ctrl->metadataCache().dirtyEvictions.reset();
        ctrl->metadataCache().blockedLookups.reset();
    }
    if (auto *est = dynamic_cast<LadderEstScheme *>(scheme_.get())) {
        est->counterDiff.reset();
        est->estimatedCw.reset();
    }
    if (auto *basic =
            dynamic_cast<LadderBasicScheme *>(scheme_.get())) {
        basic->accurateCw.reset();
    }
}

SimResult
System::run(std::uint64_t warmupInstr, std::uint64_t measureInstr)
{
    // --- Warmup: functional (timing-free) cache/content warmup,
    // then a short timed ramp to fill queues and the metadata cache.
    for (auto &core : cores_)
        core->functionalWarmup(warmupInstr);
    std::uint64_t ramp = std::max<std::uint64_t>(measureInstr / 10,
                                                 5'000);
    unsigned pending = static_cast<unsigned>(cores_.size());
    for (auto &core : cores_) {
        core->runPhase(ramp, [&pending]() { --pending; });
    }
    events_.runUntil(maxTick);
    ladder_assert(pending == 0,
                  "deadlock: %u cores stuck in warmup (events drained)",
                  pending);

    // --- Measured window ---
    resetStats();
    // The trace covers the measured window only; drop ramp records.
    if (traceSink_)
        traceSink_->clear();
    std::vector<Tick> startTime;
    for (auto &core : cores_)
        startTime.push_back(core->coreTime());

    SimResult result;
    result.coreIpc.assign(cores_.size(), 0.0);
    pending = static_cast<unsigned>(cores_.size());
    std::vector<Tick> endTime(cores_.size(), 0);
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        Core *core = cores_[c].get();
        core->runPhase(measureInstr, [&pending, &endTime, c, core]() {
            endTime[c] = core->coreTime();
            --pending;
        });
    }
    epochNames_.clear();
    epochs_.clear();
    if (config_.epochCycles > 0) {
        // Names are fixed up front so they are available (and the
        // series arity is pinned) even when the window is shorter
        // than one epoch.
        for (const auto &group : statGroups_) {
            group.visit([&](const std::string &name, double) {
                epochNames_.push_back(name);
            });
        }
        Tick epochTicks = nsToTicks(
            static_cast<double>(config_.epochCycles) /
            config_.core.freqGhz);
        if (epochTicks == 0)
            epochTicks = 1;
        scheduleEpochSnapshot(events_.now() + epochTicks, epochTicks,
                              &pending);
    }
    events_.runUntil(maxTick);
    ladder_assert(pending == 0,
                  "deadlock: %u cores stuck in measurement", pending);

    double maxElapsed = 0.0;
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        double cycles =
            cores_[c]->cyclesBetween(startTime[c], endTime[c]);
        result.coreIpc[c] =
            cycles > 0.0 ? static_cast<double>(measureInstr) / cycles
                         : 0.0;
        maxElapsed = std::max(
            maxElapsed, ticksToNs(endTime[c] - startTime[c]));
    }
    result.ipc = result.coreIpc[0];
    result.instructions = measureInstr * cores_.size();
    result.elapsedNs = maxElapsed;

    double readLatWeighted = 0.0, writeServWeighted = 0.0,
           writeTwrWeighted = 0.0;
    std::uint64_t readLatCount = 0, writeServCount = 0;
    for (auto &ctrl : controllers_) {
        result.dataReads +=
            static_cast<std::uint64_t>(ctrl->dataReads.value());
        result.metadataReads +=
            static_cast<std::uint64_t>(ctrl->metadataReads.value());
        result.smbReads +=
            static_cast<std::uint64_t>(ctrl->smbReads.value());
        result.dataWrites +=
            static_cast<std::uint64_t>(ctrl->dataWrites.value());
        result.metadataWrites +=
            static_cast<std::uint64_t>(ctrl->metadataWrites.value());
        result.readEnergyPj += ctrl->readEnergyPj.value();
        result.writeEnergyPj += ctrl->writeEnergyPj.value();
        result.fnwFlips += ctrl->fnwFlips.value();
        result.fnwCancelled += ctrl->fnwCancelled.value();
        result.spillInsertions += ctrl->spillInsertions.value();
        readLatWeighted += ctrl->readLatencyNs.sum();
        readLatCount += ctrl->readLatencyNs.count();
        writeServWeighted += ctrl->writeServiceNs.sum();
        writeTwrWeighted += ctrl->writeLatencyOnlyNs.sum();
        writeServCount += ctrl->writeServiceNs.count();
    }
    result.avgReadLatencyNs =
        readLatCount ? readLatWeighted / readLatCount : 0.0;
    result.avgWriteServiceNs =
        writeServCount ? writeServWeighted / writeServCount : 0.0;
    result.avgWriteTwrNs =
        writeServCount ? writeTwrWeighted / writeServCount : 0.0;
    result.degenerate = result.dataReads == 0 || result.dataWrites == 0;
    if (result.degenerate)
        warn("degenerate run: the measured window has %llu demand reads "
             "and %llu data writes",
             static_cast<unsigned long long>(result.dataReads),
             static_cast<unsigned long long>(result.dataWrites));

    if (auto *est = dynamic_cast<LadderEstScheme *>(scheme_.get())) {
        result.estCounterDiffMean = est->counterDiff.mean();
        result.estimatedCwMean = est->estimatedCw.mean();
    }
    if (auto *basic =
            dynamic_cast<LadderBasicScheme *>(scheme_.get())) {
        result.accurateCwMean = basic->accurateCw.mean();
    }
    return result;
}

SolverCounters
System::solverEffort() const
{
    SolverCounters total = timing_->solver;
    if (auto *split =
            dynamic_cast<const SplitResetScheme *>(scheme_.get()))
        total += split->halfModel().solver;
    return total;
}

void
System::dumpStats(std::ostream &os)
{
    for (auto &group : statGroups_)
        group.dump(os);
}

} // namespace ladder
