#include "bitops.hh"

#include <cstring>

#include "log.hh"

namespace ladder
{

namespace
{

/** Sum of the 8 byte lanes of @p lanes, widened so any values fit. */
inline unsigned
sumLanes(std::uint64_t lanes)
{
    lanes = (lanes & 0x00ff00ff00ff00ffull) +
            ((lanes >> 8) & 0x00ff00ff00ff00ffull);
    return static_cast<unsigned>((lanes * 0x0001000100010001ull) >> 48);
}

/** Lane-wise maximum of two words whose byte lanes are all below 128. */
inline std::uint64_t
laneMax(std::uint64_t a, std::uint64_t b)
{
    constexpr std::uint64_t high = 0x8080808080808080ull;
    // A lane's high bit survives the subtraction iff a >= b there.
    const std::uint64_t aWins = ((((a | high) - b) & high) >> 7) * 0xff;
    return (a & aWins) | (b & ~aWins);
}

} // namespace

// The line counts accumulate byte lanes over the line's 8 words (a
// lane reaches at most 8 x 8 = 64) and widen once at the end.

unsigned
popcountLine(const LineData &line)
{
    std::uint64_t lanes = 0;
    for (unsigned w = 0; w < lineBytes / 8; ++w)
        lanes += byteCounts(lineWord(line, w));
    return sumLanes(lanes);
}

BitTransitions
countTransitions(const LineData &before, const LineData &after)
{
    std::uint64_t resets = 0, sets = 0;
    for (unsigned w = 0; w < lineBytes / 8; ++w) {
        const std::uint64_t b = lineWord(before, w);
        const std::uint64_t a = lineWord(after, w);
        resets += byteCounts(b & ~a);
        sets += byteCounts(~b & a);
    }
    return {sumLanes(resets), sumLanes(sets)};
}

unsigned
maxBytePopcount(const LineData &line, size_t first, size_t last)
{
    ladder_assert(first <= last && last <= lineBytes,
                  "range [%zu, %zu) out of bounds", first, last);
    // Bytes outside the range are masked to zero, which never raises
    // the maximum.
    std::uint64_t best = 0;
    for (size_t i = first & ~size_t{7}; i < last; i += 8) {
        std::uint64_t word = lineWord(line, static_cast<unsigned>(i / 8));
        if (i < first)
            word &= ~0ull << ((first - i) * 8);
        if (i + 8 > last)
            word &= ~0ull >> ((i + 8 - last) * 8);
        best = laneMax(best, byteCounts(word));
    }
    // Fold the upper lanes down onto lane 0.
    best = laneMax(best, best >> 32);
    best = laneMax(best, best >> 16);
    best = laneMax(best, best >> 8);
    return static_cast<unsigned>(best & 0xff);
}

unsigned
popcountLineScalar(const LineData &line)
{
    unsigned total = 0;
    for (std::uint8_t byte : line)
        total += static_cast<unsigned>(std::popcount(byte));
    return total;
}

BitTransitions
countTransitionsScalar(const LineData &before, const LineData &after)
{
    BitTransitions t;
    for (size_t i = 0; i < lineBytes; ++i) {
        t.resets += static_cast<unsigned>(
            std::popcount(static_cast<std::uint8_t>(before[i] & ~after[i])));
        t.sets += static_cast<unsigned>(
            std::popcount(static_cast<std::uint8_t>(~before[i] & after[i])));
    }
    return t;
}

LineData
invertLine(const LineData &line)
{
    LineData out;
    for (size_t i = 0; i < lineBytes; ++i)
        out[i] = static_cast<std::uint8_t>(~line[i]);
    return out;
}

LineData
filledLine(std::uint8_t fill)
{
    LineData out;
    out.fill(fill);
    return out;
}

void
rotateGroupLeft(LineData &line, unsigned group, unsigned amount)
{
    ladder_assert(group < lineBytes / 8, "group %u out of range", group);
    std::uint64_t word;
    std::memcpy(&word, line.data() + group * 8, sizeof(word));
    word = std::rotl(word, static_cast<int>(amount % 64));
    std::memcpy(line.data() + group * 8, &word, sizeof(word));
}

void
transposeGroup(LineData &line, unsigned group)
{
    ladder_assert(group < lineBytes / 8, "group %u out of range", group);
    std::uint64_t x;
    std::memcpy(&x, line.data() + group * 8, sizeof(x));
    // Hacker's Delight 8x8 bit-matrix transpose.
    std::uint64_t t;
    t = (x ^ (x >> 7)) & 0x00aa00aa00aa00aaull;
    x = x ^ t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000cccc0000ccccull;
    x = x ^ t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x00000000f0f0f0f0ull;
    x = x ^ t ^ (t << 28);
    std::memcpy(line.data() + group * 8, &x, sizeof(x));
}

void
rotateGroupRight(LineData &line, unsigned group, unsigned amount)
{
    ladder_assert(group < lineBytes / 8, "group %u out of range", group);
    std::uint64_t word;
    std::memcpy(&word, line.data() + group * 8, sizeof(word));
    word = std::rotr(word, static_cast<int>(amount % 64));
    std::memcpy(line.data() + group * 8, &word, sizeof(word));
}

} // namespace ladder
