/**
 * @file
 * Shared wire-format constants of the controller trace encodings,
 * used by the writer (trace_sink) and the reader (trace_reader) so
 * the two cannot drift apart. The byte layouts themselves are
 * documented in trace_sink.hh and EXPERIMENTS.md.
 */

#ifndef LADDER_CTRL_TRACE_WIRE_HH
#define LADDER_CTRL_TRACE_WIRE_HH

#include <cstddef>
#include <cstdint>

namespace ladder
{

inline constexpr char traceFileMagic[8] = {'L', 'A', 'D', 'D',
                                           'R', 'T', 'R', 'C'};
inline constexpr char traceChunkMagic[4] = {'C', 'H', 'N', 'K'};
inline constexpr char traceFooterMagic[4] = {'F', 'T', 'E', 'R'};
inline constexpr char traceEndMagic[8] = {'L', 'A', 'D', 'D',
                                          'R', 'E', 'N', 'D'};

/** CSV header row, including the trailing newline. */
inline constexpr char traceCsvHeader[] =
    "type,tick,channel,wordline,bitline,lrs_count,latency_ns,"
    "queue_depth\n";

/**
 * CSV header row of attribution-enabled traces: the base columns
 * plus the eight blame components, each in integer ticks
 * (picoseconds). Reads carry zeros in every blame column.
 */
inline constexpr char traceCsvHeaderAttr[] =
    "type,tick,channel,wordline,bitline,lrs_count,latency_ns,"
    "queue_depth,dep_ticks,queue_ticks,bank_ticks,rcd_ticks,"
    "base_ticks,location_ticks,content_ticks,scheme_ticks\n";

/** Binary version of base (24-byte record) chunked traces. */
inline constexpr std::uint32_t traceBaseVersion = 2;

/**
 * Binary version of attribution-enabled traces: identical container
 * framing (chunks, CRCs, footer index, trailer) but every record
 * carries an extra 32-byte blame block — see trace_sink.hh.
 */
inline constexpr std::uint32_t traceAttrVersion = 3;

/** v2 file header size: magic + u32 version + u32 chunk capacity. */
inline constexpr std::size_t traceFileHeaderBytes = 16;

/** v2 chunk header: magic + u32 record count + u32 payload CRC. */
inline constexpr std::size_t traceChunkHeaderBytes = 12;

/** v2 fixed footer prefix: magic + u32 chunk count + u64 total. */
inline constexpr std::size_t traceFooterPrefixBytes = 16;

/** v2 per-chunk index entry: u64 offset + u32 count + u32 CRC. */
inline constexpr std::size_t traceIndexEntryBytes = 16;

/** v2 trailer: u64 footer offset + end magic. */
inline constexpr std::size_t traceTrailerBytes = 16;

} // namespace ladder

#endif // LADDER_CTRL_TRACE_WIRE_HH
