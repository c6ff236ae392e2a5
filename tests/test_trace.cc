/** @file Tests for the synthetic trace generator. */

#include <gtest/gtest.h>

#include <set>

#include "trace/synth.hh"

namespace ladder
{
namespace
{

WorkloadParams
basicParams()
{
    WorkloadParams p;
    p.memFraction = 0.25;
    p.writeFraction = 0.3;
    p.workingSetPages = 64;
    p.streamFraction = 0.5;
    p.hotFraction = 0.3;
    p.hotPages = 8;
    p.streams = 4;
    p.seed = 5;
    return p;
}

TEST(Trace, Deterministic)
{
    SyntheticTrace a(basicParams()), b(basicParams());
    for (int i = 0; i < 500; ++i) {
        TraceRecord ra = a.next();
        TraceRecord rb = b.next();
        EXPECT_EQ(ra.lineAddr, rb.lineAddr);
        EXPECT_EQ(ra.isWrite, rb.isWrite);
        EXPECT_EQ(ra.nonMemBefore, rb.nonMemBefore);
        EXPECT_EQ(ra.storeData, rb.storeData);
    }
}

TEST(Trace, AddressesStayInWorkingSet)
{
    SyntheticTrace trace(basicParams());
    Addr limit = trace.footprintBytes();
    for (int i = 0; i < 5000; ++i) {
        TraceRecord rec = trace.next();
        EXPECT_LT(rec.lineAddr, limit);
        EXPECT_EQ(rec.lineAddr % lineBytes, 0u);
    }
}

TEST(Trace, MemoryIntensityMatchesParameter)
{
    WorkloadParams p = basicParams();
    p.memFraction = 0.2;
    SyntheticTrace trace(p);
    std::uint64_t instr = 0, memOps = 0;
    for (int i = 0; i < 20000; ++i) {
        TraceRecord rec = trace.next();
        instr += rec.nonMemBefore + 1;
        ++memOps;
    }
    double measured = static_cast<double>(memOps) /
                      static_cast<double>(instr);
    EXPECT_NEAR(measured, 0.2, 0.01);
}

TEST(Trace, WriteFractionRoughlyMatches)
{
    WorkloadParams p = basicParams();
    p.writeFraction = 0.4;
    SyntheticTrace trace(p);
    unsigned writes = 0;
    constexpr int records = 20000;
    for (int i = 0; i < records; ++i)
        writes += trace.next().isWrite;
    // Stream lines take stores at writeFraction with ~50% per-access
    // density, so the overall store share is below writeFraction but
    // well above zero.
    EXPECT_GT(writes, records / 10);
    EXPECT_LT(writes, records / 2);
}

TEST(Trace, StreamsDwellOnLines)
{
    WorkloadParams p = basicParams();
    p.streamFraction = 1.0;
    p.hotFraction = 0.0;
    p.streams = 1;
    p.dwellPerLine = 8;
    SyntheticTrace trace(p);
    // With one pure stream, consecutive records repeat each line 8
    // times before advancing.
    Addr last = trace.next().lineAddr;
    unsigned repeats = 1;
    std::vector<unsigned> runs;
    for (int i = 0; i < 200; ++i) {
        Addr addr = trace.next().lineAddr;
        if (addr == last) {
            ++repeats;
        } else {
            runs.push_back(repeats);
            repeats = 1;
            last = addr;
        }
    }
    for (unsigned run : runs)
        EXPECT_LE(run, 8u);
    // Most runs hit the full dwell.
    unsigned full = 0;
    for (unsigned run : runs)
        full += run == 8;
    EXPECT_GT(full, runs.size() / 2);
}

TEST(Trace, HotSetConcentratesAccesses)
{
    WorkloadParams p = basicParams();
    p.streamFraction = 0.0;
    p.hotFraction = 1.0;
    p.hotPages = 4;
    SyntheticTrace trace(p);
    std::set<std::uint64_t> pages;
    for (int i = 0; i < 2000; ++i)
        pages.insert(trace.next().lineAddr / 4096);
    EXPECT_LE(pages.size(), 4u);
}

TEST(Trace, DependentLoadsOnlyWhenConfigured)
{
    WorkloadParams none = basicParams();
    none.dependentFraction = 0.0;
    SyntheticTrace a(none);
    for (int i = 0; i < 2000; ++i)
        EXPECT_FALSE(a.next().dependent);

    WorkloadParams some = basicParams();
    some.streamFraction = 0.0;
    some.hotFraction = 0.0;
    some.dependentFraction = 0.5;
    SyntheticTrace b(some);
    unsigned dependent = 0;
    for (int i = 0; i < 2000; ++i) {
        TraceRecord rec = b.next();
        dependent += rec.dependent;
        if (rec.isWrite) {
            EXPECT_FALSE(rec.dependent);
        }
    }
    EXPECT_GT(dependent, 400u);
}

TEST(Trace, StoreOffsetsAligned)
{
    SyntheticTrace trace(basicParams());
    for (int i = 0; i < 5000; ++i) {
        TraceRecord rec = trace.next();
        if (rec.isWrite) {
            EXPECT_EQ(rec.storeOffset % 8, 0u);
            EXPECT_LT(rec.storeOffset, lineBytes);
        }
    }
}

TEST(Trace, DifferentSeedsDiverge)
{
    WorkloadParams p1 = basicParams();
    WorkloadParams p2 = basicParams();
    p2.seed = 6;
    SyntheticTrace a(p1), b(p2);
    unsigned same = 0;
    for (int i = 0; i < 200; ++i)
        same += a.next().lineAddr == b.next().lineAddr;
    EXPECT_LT(same, 50u);
}

} // namespace
} // namespace ladder
