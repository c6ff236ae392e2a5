/**
 * @file
 * Bit-manipulation utilities used throughout the LADDER stack: popcounts
 * at byte/line granularity, per-byte maxima, and the bit-level rotation
 * primitive used by the intra-line shifting optimization (paper §4.1).
 *
 * Every counter here — and the backing store's mat counters — is built
 * on one header-inline kernel, byteCounts(), which returns the popcount
 * of each byte of a 64-bit word in that byte's own lane. It is the
 * software form of the paper's LRS-metadata update module ("64 parallel
 * per-byte popcounts"): the store sums lanes per mat, popcountLine and
 * countTransitions sum all lanes, maxBytePopcount takes their maximum.
 *
 * Why SWAR (SIMD within a register) and not the popcnt instruction or
 * SIMD vector kernels: the build targets baseline x86-64, where
 * std::popcount is an out-of-line libgcc call. A `-mpopcnt` build
 * raises SIGILL on a host without popcnt, and a flag in the top-level
 * build does not reach projects that compile src/ with their own CMake
 * files. A target clone or a vector kernel
 * needs a runtime CPU check that picks between two paths which must
 * then be kept in agreement. The SWAR count is a dozen plain ALU
 * operations per word, inlines into every caller, and runs on any
 * 64-bit host.
 *
 * The byte-wise `...Scalar` functions count bits independently of
 * byteCounts() and are the oracle the property tests check the kernels
 * against.
 */

#ifndef LADDER_COMMON_BITOPS_HH
#define LADDER_COMMON_BITOPS_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstddef>
#include <cstring>

#include "types.hh"

namespace ladder
{

/** A 64-byte memory line payload. */
using LineData = std::array<std::uint8_t, lineBytes>;

static_assert(std::endian::native == std::endian::little,
              "the byte-lane kernels assume line byte k is lane k of "
              "the word that holds it");

/** Word @p w (0-7) of a line: bytes 8w..8w+7, byte 8w+k in lane k. */
inline std::uint64_t
lineWord(const LineData &line, unsigned w)
{
    std::uint64_t word;
    std::memcpy(&word, line.data() + w * 8, sizeof(word));
    return word;
}

/**
 * Popcount of each byte of @p x, left in that byte's lane (each lane
 * holds 0-8). Multiplying by 0x0101010101010101 and shifting right by
 * 56 sums the lanes into the word's popcount.
 */
inline std::uint64_t
byteCounts(std::uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ull;
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    return (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
}

/** Number of set bits in one byte. */
inline unsigned
popcount8(std::uint8_t v)
{
    return static_cast<unsigned>(byteCounts(v));
}

/** Number of set bits in an entire 64-byte line. */
unsigned popcountLine(const LineData &line);

/** Maximum per-byte popcount over a [first, last) byte range. */
unsigned maxBytePopcount(const LineData &line, size_t first, size_t last);

/**
 * Number of 1->0 transitions (RESETs) and 0->1 transitions (SETs) needed
 * to turn @p before into @p after.
 */
struct BitTransitions
{
    unsigned resets = 0; //!< bits going 1 -> 0 (LRS -> HRS)
    unsigned sets = 0;   //!< bits going 0 -> 1 (HRS -> LRS)
};

BitTransitions countTransitions(const LineData &before,
                                const LineData &after);

// Byte-wise references: the specification the kernels above are
// tested against, counting each byte with std::popcount.
unsigned popcountLineScalar(const LineData &line);
BitTransitions countTransitionsScalar(const LineData &before,
                                      const LineData &after);

/** Bitwise NOT of an entire line. */
LineData invertLine(const LineData &line);

/** A line with every byte equal to @p fill. */
LineData filledLine(std::uint8_t fill);

/**
 * Rotate the bits of an 8-byte group left by @p amount positions,
 * treating the 8 bytes as a 64-bit little-endian quantity.
 *
 * This is the primitive behind LADDER's intra-line bit-level shifting:
 * the 8 bytes a chip contributes to a line are rotated so that clustered
 * '1' bytes are spread across the chip's 8 mats. Rotation is exactly
 * invertible (rotate right by the same amount).
 *
 * @param line Line to transform (modified in place).
 * @param group Which 8-byte group (0-7) to rotate.
 * @param amount Rotation amount in bits (taken modulo 64).
 */
void rotateGroupLeft(LineData &line, unsigned group, unsigned amount);

/** Inverse of rotateGroupLeft. */
void rotateGroupRight(LineData &line, unsigned group, unsigned amount);

/**
 * Transpose the 8x8 bit matrix formed by an 8-byte group: bit j of
 * byte i swaps with bit i of byte j. A dense byte (e.g. a sign-
 * extension or FP-exponent byte) is thereby spread one bit into each
 * of the 8 bytes — i.e. one bit into each mat of the chip. The
 * transform is an involution (applying it twice restores the data).
 */
void transposeGroup(LineData &line, unsigned group);

} // namespace ladder

#endif // LADDER_COMMON_BITOPS_HH
