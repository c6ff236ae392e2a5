/**
 * @file
 * Tests for the named workload configurations, plus property tests
 * over every instantiable generator (the paper's synthetics and the
 * content-aware families): seed determinism, footprint containment,
 * and the content invariants each family advertises — including the
 * timing-table maximality gate behind the adversarial family.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "reram/timing_tables.hh"
#include "trace/workload_frontend.hh"
#include "trace/workloads.hh"

namespace ladder
{
namespace
{

/**
 * Every workload name that maps to exactly one TraceSource. Mix names
 * are expanded to four member cores upstream (System asserts 1-or-4
 * workloads), so they are not directly instantiable here.
 */
std::vector<std::string>
instantiableNames()
{
    std::vector<std::string> names;
    for (const auto &name : registeredWorkloadNames())
        if (!isMixWorkload(name))
            names.push_back(name);
    return names;
}

std::vector<TraceRecord>
drawRecords(const std::string &name, std::uint64_t seedSalt,
            std::size_t count)
{
    WorkloadInstance inst = makeWorkloadInstance(name, seedSalt, 1.0);
    std::vector<TraceRecord> records;
    records.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        records.push_back(inst.source->next());
    return records;
}

bool
sameRecord(const TraceRecord &a, const TraceRecord &b)
{
    return a.nonMemBefore == b.nonMemBefore &&
           a.isWrite == b.isWrite && a.dependent == b.dependent &&
           a.lineAddr == b.lineAddr && a.storeOffset == b.storeOffset &&
           a.storeData == b.storeData;
}

TEST(Workloads, PaperWorkloadListShape)
{
    auto singles = singleWorkloadNames();
    EXPECT_EQ(singles.size(), 8u);
    EXPECT_EQ(singles.front(), "astar");
    EXPECT_EQ(singles.back(), "perlb");
    auto mixes = mixWorkloads();
    EXPECT_EQ(mixes.size(), 8u);
    for (const auto &mix : mixes)
        EXPECT_EQ(mix.second.size(), 4u);
    EXPECT_EQ(allWorkloadNames().size(), 16u);
}

TEST(Workloads, Mix1MatchesTable3)
{
    auto mixes = mixWorkloads();
    EXPECT_EQ(mixes[0].first, "mix-1");
    EXPECT_EQ(mixes[0].second,
              (std::vector<std::string>{"astar", "lbm", "mcf",
                                        "cactusADM"}));
}

TEST(Workloads, EveryNameResolves)
{
    for (const auto &name : singleWorkloadNames()) {
        WorkloadParams p = workloadByName(name);
        EXPECT_GT(p.memFraction, 0.0);
        EXPECT_LT(p.memFraction, 1.0);
        EXPECT_GT(p.workingSetPages, 0u);
    }
    for (const auto &mix : mixWorkloads())
        for (const auto &member : mix.second)
            EXPECT_NO_THROW(workloadByName(member));
}

TEST(Workloads, ShortAndLongNamesAgree)
{
    WorkloadParams a = workloadByName("libq");
    WorkloadParams b = workloadByName("libquantum");
    EXPECT_EQ(a.workingSetPages, b.workingSetPages);
    EXPECT_EQ(a.seed, b.seed);
}

TEST(Workloads, UnknownNameIsFatal)
{
    EXPECT_THROW(workloadByName("gcc"), std::runtime_error);
}

TEST(Workloads, SeedSaltChangesSeedOnly)
{
    WorkloadParams a = workloadByName("mcf", 0);
    WorkloadParams b = workloadByName("mcf", 1);
    EXPECT_NE(a.seed, b.seed);
    EXPECT_EQ(a.workingSetPages, b.workingSetPages);
}

TEST(Workloads, ScaleShrinksWorkingSet)
{
    WorkloadParams full = workloadByName("lbm", 0, 1.0);
    WorkloadParams half = workloadByName("lbm", 0, 0.5);
    EXPECT_EQ(half.workingSetPages, full.workingSetPages / 2);
    WorkloadParams tiny = workloadByName("lbm", 0, 1e-9);
    EXPECT_GE(tiny.workingSetPages, 4u);
}

TEST(Workloads, IsMixWorkload)
{
    EXPECT_TRUE(isMixWorkload("mix-1"));
    EXPECT_TRUE(isMixWorkload("mix-8"));
    EXPECT_FALSE(isMixWorkload("astar"));
}

TEST(Workloads, CharacterDiffersAcrossBenchmarks)
{
    // lbm is write-heavy and streaming; mcf is chase-heavy.
    WorkloadParams lbm = workloadByName("lbm");
    WorkloadParams mcf = workloadByName("mcf");
    EXPECT_GT(lbm.writeFraction, mcf.writeFraction);
    EXPECT_GT(lbm.streamFraction, mcf.streamFraction);
    EXPECT_GT(mcf.dependentFraction, lbm.dependentFraction);
}

// ---------------------------------------------------------------
// Generator-wide properties
// ---------------------------------------------------------------

TEST(WorkloadProperties, EveryGeneratorIsSeedDeterministic)
{
    for (const auto &name : instantiableNames()) {
        auto a = drawRecords(name, 3, 2000);
        auto b = drawRecords(name, 3, 2000);
        for (std::size_t i = 0; i < a.size(); ++i)
            ASSERT_TRUE(sameRecord(a[i], b[i]))
                << name << " record " << i;
        // A different salt reaches every stochastic generator's
        // stream (adv-lrs is deliberately seed-free).
        if (name == "adv-lrs")
            continue;
        auto c = drawRecords(name, 4, 2000);
        bool differs = false;
        for (std::size_t i = 0; i < a.size() && !differs; ++i)
            differs = !sameRecord(a[i], c[i]);
        EXPECT_TRUE(differs) << name << " ignores its seed salt";
    }
}

TEST(WorkloadProperties, SeedSaltReachesEveryInstanceSeed)
{
    for (const auto &name : instantiableNames()) {
        WorkloadInstance a = makeWorkloadInstance(name, 0, 1.0);
        WorkloadInstance b = makeWorkloadInstance(name, 1, 1.0);
        EXPECT_NE(a.seed, b.seed) << name;
        EXPECT_EQ(a.source->footprintBytes(),
                  b.source->footprintBytes())
            << name;
    }
}

TEST(WorkloadProperties, EveryGeneratorStaysInsideItsFootprint)
{
    for (const auto &name : instantiableNames()) {
        WorkloadInstance inst = makeWorkloadInstance(name, 7, 1.0);
        const std::uint64_t footprint = inst.source->footprintBytes();
        ASSERT_GT(footprint, 0u) << name;
        EXPECT_EQ(footprint % 4096, 0u)
            << name << " footprint is not page-aligned";
        for (int i = 0; i < 4000; ++i) {
            TraceRecord rec = inst.source->next();
            ASSERT_LT(rec.lineAddr, footprint) << name;
            ASSERT_EQ(rec.lineAddr % lineBytes, 0u) << name;
            if (rec.isWrite) {
                ASSERT_LT(rec.storeOffset, lineBytes) << name;
                ASSERT_EQ(rec.storeOffset % 8, 0u) << name;
            }
        }
    }
}

/**
 * The store-stream zero-word fraction each family advertises (the
 * LRS-distribution knob ARAS-style content-aware writes exploit) must
 * hold within sampling tolerance.
 */
TEST(WorkloadProperties, FamilyZeroWordFractionsHold)
{
    const struct
    {
        const char *name;
        double expected;
    } families[] = {
        {"dnn-update", DnnWeightUpdateSource::zeroWordFraction},
        {"kv-log", KvLogSource::zeroWordFraction},
    };
    for (const auto &family : families) {
        WorkloadInstance inst =
            makeWorkloadInstance(family.name, 11, 1.0);
        std::uint64_t writes = 0, zeroWords = 0;
        for (int i = 0; i < 60'000; ++i) {
            TraceRecord rec = inst.source->next();
            if (!rec.isWrite)
                continue;
            ++writes;
            std::uint64_t word = 0;
            std::memcpy(&word, rec.storeData.data(), sizeof(word));
            zeroWords += word == 0;
        }
        ASSERT_GT(writes, 10'000u) << family.name;
        const double measured =
            double(zeroWords) / double(writes);
        EXPECT_NEAR(measured, family.expected, 0.02)
            << family.name << " zero-word fraction drifted";
    }
}

TEST(WorkloadProperties, AdversarialFamilyIsAllOnesWriteOnly)
{
    WorkloadInstance inst = makeWorkloadInstance("adv-lrs", 5, 1.0);
    const std::uint64_t lines =
        inst.source->footprintBytes() / lineBytes;
    std::uint64_t prevLine = ~std::uint64_t{0};
    for (std::uint64_t i = 0; i < 8 * lines + 64; ++i) {
        TraceRecord rec = inst.source->next();
        ASSERT_TRUE(rec.isWrite);
        ASSERT_EQ(rec.nonMemBefore, 0u);
        for (std::uint8_t byte : rec.storeData)
            ASSERT_EQ(byte, 0xff);
        // The sweep dwells on all 8 words of a line, then advances —
        // every line in the footprint converges to all-LRS content.
        const std::uint64_t line = rec.lineAddr / lineBytes;
        ASSERT_EQ(rec.storeOffset, (i % 8) * 8);
        if (i % 8 != 0) {
            ASSERT_EQ(line, prevLine);
        } else if (i > 0) {
            ASSERT_EQ(line, (prevLine + 1) % lines);
        }
        prevLine = line;
    }
    // Resident (first-touch) content is all-ones too, so the very
    // first RESET of every line already sees maximum LRS.
    DataPatternModel firstTouch(familyFirstTouchMix("adv-lrs"));
    EXPECT_DOUBLE_EQ(firstTouch.expectedDensity(), 8.0);
}

/**
 * The maximality gate: in the LADDER write timing table, the
 * max-content bucket's latency dominates every other content bucket
 * at every location — so a workload whose every wordline sits at
 * maximum LRS count (adv-lrs) provably maximizes per-write tWR for
 * its locations; no synthetic content can be slower.
 */
TEST(WorkloadProperties, AdversarialContentMaximizesTableLatency)
{
    const TimingModel &m = cachedTimingModel(CrossbarParams{});
    const LatencySurface &table = *m.ladderSurface;
    const unsigned contentMax = table.contentMax();
    double globalWorstAtMax = 0.0;
    for (unsigned wl = 0; wl < table.rows(); wl += 73) {
        for (unsigned bl = 0; bl < table.cols(); bl += 73) {
            const double atMax =
                table.lookup(wl, bl, contentMax).latencyNs;
            globalWorstAtMax = std::max(globalWorstAtMax, atMax);
            for (unsigned lrs = 0; lrs <= contentMax; lrs += 32) {
                EXPECT_GE(atMax, table.lookup(wl, bl, lrs).latencyNs)
                    << "wl=" << wl << " bl=" << bl << " lrs=" << lrs;
            }
        }
    }
    // And the max-content column reaches the table-wide worst case.
    EXPECT_DOUBLE_EQ(globalWorstAtMax, table.worstLatencyNs());
}

} // namespace
} // namespace ladder
