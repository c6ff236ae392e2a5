/** @file Unit and property tests for the bit-manipulation utilities. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
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

TEST(Bitops, ByteCountsEveryByteInEveryLane)
{
    for (unsigned lane = 0; lane < 8; ++lane) {
        for (unsigned v = 0; v < 256; ++v) {
            // v in this lane, its complement in every other lane.
            std::uint64_t word = 0, expect = 0;
            for (unsigned k = 0; k < 8; ++k) {
                const unsigned byte = k == lane ? v : (~v & 0xffu);
                word |= std::uint64_t{byte} << (8 * k);
                expect |= std::uint64_t(std::popcount(byte)) << (8 * k);
            }
            ASSERT_EQ(byteCounts(word), expect)
                << "lane " << lane << " byte " << v;
        }
    }
}

TEST(Bitops, PopcountLineMatchesByteSum)
{
    Rng rng(1);
    for (int i = 0; i < 50; ++i) {
        LineData line = randomLine(rng);
        unsigned expected = 0;
        for (auto byte : line)
            expected += static_cast<unsigned>(std::popcount(byte));
        EXPECT_EQ(popcountLine(line), expected);
    }
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
        LineData diff;
        for (size_t k = 0; k < lineBytes; ++k)
            diff[k] = static_cast<std::uint8_t>(a[k] ^ b[k]);
        EXPECT_EQ(t.resets + t.sets, popcountLine(diff));
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
// Kernel equivalence: the byte-wise references are the specification;
// the byte-lane kernels must agree bit-for-bit on every input we can
// throw at them.
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

TEST(BitopsKernels, LineKernelsMatchScalarReference)
{
    Rng rng(6);
    std::vector<LineData> lines = fuzzLines(rng, 200);
    for (size_t i = 0; i < lines.size(); ++i) {
        const LineData &a = lines[i];
        const LineData &b = lines[(i + 1) % lines.size()];
        EXPECT_EQ(popcountLine(a), popcountLineScalar(a)) << "line " << i;
        BitTransitions d = countTransitions(a, b);
        BitTransitions s = countTransitionsScalar(a, b);
        EXPECT_EQ(d.resets, s.resets);
        EXPECT_EQ(d.sets, s.sets);
    }
}

TEST(BitopsKernels, MaxBytePopcountMatchesByteLoopForEveryWindow)
{
    // Exhaustive over every [first, last) window — including empty
    // windows and every unaligned endpoint — so the masked head/tail
    // word loads are fully exercised.
    Rng rng(7);
    std::vector<LineData> lines = fuzzLines(rng, 12);
    for (const LineData &line : lines) {
        for (size_t first = 0; first <= lineBytes; ++first) {
            for (size_t last = first; last <= lineBytes; ++last) {
                unsigned expect = 0;
                for (size_t i = first; i < last; ++i)
                    expect = std::max(
                        expect,
                        static_cast<unsigned>(std::popcount(line[i])));
                ASSERT_EQ(maxBytePopcount(line, first, last), expect)
                    << "window [" << first << ", " << last << ")";
            }
        }
    }
}

TEST(BitopsKernels, MaxBytePopcountOnEdgePatterns)
{
    EXPECT_EQ(maxBytePopcount(filledLine(0xff), 0, lineBytes), 8u);
    EXPECT_EQ(maxBytePopcount(filledLine(0x00), 0, lineBytes), 0u);
    EXPECT_EQ(maxBytePopcount(filledLine(0x55), 3, 9), 4u);
}

} // namespace
} // namespace ladder
