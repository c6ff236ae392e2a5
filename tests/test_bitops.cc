/** @file Unit and property tests for the bit-manipulation utilities. */

#include <gtest/gtest.h>

#include <vector>

#include "common/bitops.hh"
#include "common/rng.hh"

namespace ladder
{
namespace
{

LineData
randomLine(Rng &rng)
{
    LineData line;
    for (auto &byte : line)
        byte = static_cast<std::uint8_t>(rng.nextBounded(256));
    return line;
}

TEST(Bitops, Popcount8)
{
    EXPECT_EQ(popcount8(0x00), 0u);
    EXPECT_EQ(popcount8(0xff), 8u);
    EXPECT_EQ(popcount8(0x0f), 4u);
    EXPECT_EQ(popcount8(0x81), 2u);
}

TEST(Bitops, PopcountLineMatchesByteSum)
{
    Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        LineData line = randomLine(rng);
        unsigned expected = 0;
        for (auto byte : line)
            expected += popcount8(byte);
        EXPECT_EQ(popcountLine(line), expected);
    }
}

TEST(Bitops, PopcountRangeSubsets)
{
    Rng rng(2);
    LineData line = randomLine(rng);
    unsigned total = 0;
    for (size_t start = 0; start < lineBytes; start += 16)
        total += popcountRange(line, start, start + 16);
    EXPECT_EQ(total, popcountLine(line));
    EXPECT_EQ(popcountRange(line, 5, 5), 0u);
}

TEST(Bitops, MaxBytePopcount)
{
    LineData line = filledLine(0x00);
    line[10] = 0x7f; // 7 ones
    line[20] = 0x0f; // 4 ones
    EXPECT_EQ(maxBytePopcount(line, 0, lineBytes), 7u);
    EXPECT_EQ(maxBytePopcount(line, 16, 32), 4u);
    EXPECT_EQ(maxBytePopcount(line, 32, 48), 0u);
}

TEST(Bitops, HammingAndTransitionsConsistent)
{
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        LineData a = randomLine(rng);
        LineData b = randomLine(rng);
        BitTransitions t = countTransitions(a, b);
        EXPECT_EQ(t.resets + t.sets, hammingLine(a, b));
        // Popcount bookkeeping: ones(b) = ones(a) - resets + sets.
        EXPECT_EQ(popcountLine(b),
                  popcountLine(a) - t.resets + t.sets);
    }
}

TEST(Bitops, InvertLine)
{
    Rng rng(4);
    LineData line = randomLine(rng);
    LineData inv = invertLine(line);
    EXPECT_EQ(popcountLine(inv), lineBytes * 8 - popcountLine(line));
    EXPECT_EQ(invertLine(inv), line);
}

TEST(Bitops, FilledLine)
{
    EXPECT_EQ(popcountLine(filledLine(0x00)), 0u);
    EXPECT_EQ(popcountLine(filledLine(0xff)), lineBytes * 8);
}

class RotateProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RotateProperty, RoundTripAndPopcountPreserved)
{
    unsigned amount = GetParam();
    Rng rng(100 + amount);
    for (int i = 0; i < 20; ++i) {
        LineData line = randomLine(rng);
        LineData original = line;
        for (unsigned g = 0; g < lineBytes / 8; ++g)
            rotateGroupLeft(line, g, amount);
        EXPECT_EQ(popcountLine(line), popcountLine(original));
        for (unsigned g = 0; g < lineBytes / 8; ++g)
            rotateGroupRight(line, g, amount);
        EXPECT_EQ(line, original);
    }
}

INSTANTIATE_TEST_SUITE_P(AllAmounts, RotateProperty,
                         ::testing::Values(0u, 1u, 7u, 8u, 13u, 32u,
                                           63u, 64u, 65u, 200u));

class TransposeProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TransposeProperty, InvolutionAndPopcountPreserved)
{
    unsigned group = GetParam();
    Rng rng(200 + group);
    for (int i = 0; i < 20; ++i) {
        LineData line = randomLine(rng);
        LineData original = line;
        transposeGroup(line, group);
        EXPECT_EQ(popcountLine(line), popcountLine(original));
        transposeGroup(line, group);
        EXPECT_EQ(line, original);
    }
}

INSTANTIATE_TEST_SUITE_P(AllGroups, TransposeProperty,
                         ::testing::Range(0u, 8u));

TEST(Bitops, TransposeSpreadsDenseByte)
{
    // One all-ones byte must spread exactly one bit to each byte of
    // its group.
    LineData line = filledLine(0x00);
    line[3] = 0xff;
    transposeGroup(line, 0);
    for (unsigned byte = 0; byte < 8; ++byte)
        EXPECT_EQ(popcount8(line[byte]), 1u) << "byte " << byte;
    // And specifically bit 3 of every byte (row 3 became column 3).
    for (unsigned byte = 0; byte < 8; ++byte)
        EXPECT_TRUE(line[byte] & (1u << 3));
}

TEST(Bitops, TransposeLeavesOtherGroupsAlone)
{
    Rng rng(5);
    LineData line = randomLine(rng);
    LineData original = line;
    transposeGroup(line, 2);
    for (unsigned i = 0; i < lineBytes; ++i) {
        if (i / 8 != 2) {
            EXPECT_EQ(line[i], original[i]) << "byte " << i;
        }
    }
}

// --------------------------------------------------------------------
// Dispatched-kernel equivalence: the scalar reference is the
// specification; the dispatched (word-lane or AVX2) implementations
// must agree bit-for-bit on every input we can throw at them.
// --------------------------------------------------------------------

/** Edge-pattern lines plus a stream of random ones. */
std::vector<LineData>
fuzzLines(Rng &rng, int randomCount)
{
    std::vector<LineData> lines;
    lines.push_back(filledLine(0x00));
    lines.push_back(filledLine(0xff));
    lines.push_back(filledLine(0x01));
    lines.push_back(filledLine(0x80));
    lines.push_back(filledLine(0x55));
    lines.push_back(filledLine(0xaa));
    // A single set bit walking the line (catches lane offsets).
    for (unsigned byte : {0u, 7u, 8u, 31u, 32u, 63u}) {
        LineData line = filledLine(0x00);
        line[byte] = 0x01;
        lines.push_back(line);
    }
    for (int i = 0; i < randomCount; ++i)
        lines.push_back(randomLine(rng));
    return lines;
}

TEST(BitopsDispatch, LineKernelsMatchScalarReference)
{
    Rng rng(6);
    std::vector<LineData> lines = fuzzLines(rng, 200);
    for (size_t i = 0; i < lines.size(); ++i) {
        const LineData &a = lines[i];
        const LineData &b = lines[(i + 1) % lines.size()];
        EXPECT_EQ(popcountLine(a), popcountLineScalar(a)) << "line " << i;
        EXPECT_EQ(hammingLine(a, b), hammingLineScalar(a, b));
        BitTransitions d = countTransitions(a, b);
        BitTransitions s = countTransitionsScalar(a, b);
        EXPECT_EQ(d.resets, s.resets);
        EXPECT_EQ(d.sets, s.sets);
    }
}

TEST(BitopsDispatch, PopcountRangeMatchesScalarForEveryWindow)
{
    // Exhaustive over every [first, last) window — including empty
    // windows and every unaligned endpoint — so the masked head/tail
    // word loads are fully exercised.
    Rng rng(7);
    std::vector<LineData> lines = fuzzLines(rng, 12);
    for (const LineData &line : lines) {
        for (size_t first = 0; first <= lineBytes; ++first) {
            for (size_t last = first; last <= lineBytes; ++last) {
                ASSERT_EQ(popcountRange(line, first, last),
                          popcountRangeScalar(line, first, last))
                    << "window [" << first << ", " << last << ")";
            }
        }
    }
}

TEST(BitopsDispatch, Avx2KernelsMatchScalarReference)
{
    if (!bitopsHaveAvx2())
        GTEST_SKIP() << "AVX2 unavailable or disabled on this host";
    Rng rng(8);
    std::vector<LineData> lines = fuzzLines(rng, 500);
    for (size_t i = 0; i < lines.size(); ++i) {
        const LineData &a = lines[i];
        const LineData &b = lines[(i * 7 + 3) % lines.size()];
        ASSERT_EQ(popcountLineAvx2(a), popcountLineScalar(a))
            << "line " << i;
        ASSERT_EQ(hammingLineAvx2(a, b), hammingLineScalar(a, b));
        BitTransitions v = countTransitionsAvx2(a, b);
        BitTransitions s = countTransitionsScalar(a, b);
        ASSERT_EQ(v.resets, s.resets);
        ASSERT_EQ(v.sets, s.sets);
    }
}

TEST(BitopsDispatch, DispatchDecisionIsStable)
{
    // The runtime dispatch decision is made once per process; repeated
    // queries must agree (the kernels above rely on this).
    bool first = bitopsHaveAvx2();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(bitopsHaveAvx2(), first);
}

TEST(BitopsDispatch, MaxBytePopcountOnEdgePatterns)
{
    EXPECT_EQ(maxBytePopcount(filledLine(0xff), 0, lineBytes), 8u);
    EXPECT_EQ(maxBytePopcount(filledLine(0x00), 0, lineBytes), 0u);
    EXPECT_EQ(maxBytePopcount(filledLine(0x55), 3, 9), 4u);
}

} // namespace
} // namespace ladder
