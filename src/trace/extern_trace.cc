#include "extern_trace.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "common/crc32.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "ctrl/trace_reader.hh"

namespace ladder
{

std::string
externTraceFormatName(ExternTraceFormat format)
{
    switch (format) {
      case ExternTraceFormat::Dramsim3: return "dramsim3";
      case ExternTraceFormat::Bin2: return "bin2";
    }
    return "?";
}

ExternContentMode
externContentModeFromName(const std::string &name)
{
    if (name == "auto")
        return ExternContentMode::Auto;
    if (name == "pattern")
        return ExternContentMode::Pattern;
    fatal("unknown external content mode '%s' (expected "
          "auto/pattern)",
          name.c_str());
}

namespace
{

/** "LADDRTRC" — the bin2 container magic (see ctrl/trace_sink.hh). */
const char bin2Magic[8] = {'L', 'A', 'D', 'D', 'R', 'T', 'R', 'C'};

bool
looksLikeBin2(const std::string &bytes)
{
    return bytes.size() >= sizeof(bin2Magic) &&
           std::equal(bin2Magic, bin2Magic + sizeof(bin2Magic),
                      bytes.begin());
}

/**
 * Parse an unsigned integer token with an explicit radix; total —
 * rejects empty tokens, stray characters and overflow instead of
 * wrapping or invoking strtoull's locale/errno contract.
 */
bool
parseUint(const std::string &token, unsigned radix,
          std::uint64_t &out)
{
    std::size_t pos = 0;
    if (radix == 16 && token.size() > 2 && token[0] == '0' &&
        (token[1] == 'x' || token[1] == 'X'))
        pos = 2;
    if (pos >= token.size())
        return false;
    std::uint64_t value = 0;
    for (; pos < token.size(); ++pos) {
        char c = token[pos];
        unsigned digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<unsigned>(c - '0');
        else if (radix == 16 && c >= 'a' && c <= 'f')
            digit = static_cast<unsigned>(c - 'a') + 10;
        else if (radix == 16 && c >= 'A' && c <= 'F')
            digit = static_cast<unsigned>(c - 'A') + 10;
        else
            return false;
        if (value > (~std::uint64_t{0} - digit) / radix)
            return false; // overflow
        value = value * radix + digit;
    }
    out = value;
    return true;
}

std::string
upper(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(
            std::toupper(static_cast<unsigned char>(c)));
    return s;
}

void
parseDramsim3(const std::string &bytes, ExternParseResult &out)
{
    std::size_t lineNo = 0;
    std::size_t pos = 0;
    while (pos <= bytes.size()) {
        std::size_t eol = bytes.find('\n', pos);
        if (eol == std::string::npos)
            eol = bytes.size();
        ++lineNo;
        std::string line = bytes.substr(pos, eol - pos);
        pos = eol + 1;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        // NUL bytes or other control characters mean this is not a
        // text trace at all (e.g. a truncated binary) — reject rather
        // than silently tokenizing garbage.
        for (char c : line) {
            unsigned char u = static_cast<unsigned char>(c);
            if (u < 0x20 && c != '\t') {
                out.error = "line " + std::to_string(lineNo) +
                            ": non-text byte in trace (binary file "
                            "or corruption?)";
                return;
            }
        }
        std::istringstream tokens(line);
        std::string addrTok, opTok, cycleTok, extra;
        if (!(tokens >> addrTok))
            continue; // blank line
        if (addrTok[0] == '#')
            continue; // comment
        if (!(tokens >> opTok) || !(tokens >> cycleTok) ||
            (tokens >> extra)) {
            out.error = "line " + std::to_string(lineNo) +
                        ": expected '<hexaddr> <READ|WRITE> <cycle>'";
            return;
        }
        ExternRecord rec;
        if (!parseUint(addrTok, 16, rec.addr)) {
            out.error = "line " + std::to_string(lineNo) +
                        ": bad hex address '" + addrTok + "'";
            return;
        }
        const std::string op = upper(opTok);
        if (op == "WRITE" || op == "W" || op == "P_MEM_WR" ||
            op == "BOFF") {
            rec.isWrite = true;
        } else if (op == "READ" || op == "R" || op == "P_MEM_RD" ||
                   op == "P_FETCH") {
            rec.isWrite = false;
        } else {
            out.error = "line " + std::to_string(lineNo) +
                        ": bad op '" + opTok +
                        "' (expected READ/WRITE/R/W)";
            return;
        }
        if (!parseUint(cycleTok, 10, rec.cycle)) {
            out.error = "line " + std::to_string(lineNo) +
                        ": bad cycle '" + cycleTok + "'";
            return;
        }
        out.records.push_back(rec);
    }
    if (out.records.empty())
        out.error = "trace contains no requests";
}

void
parseBin2(const std::string &bytes, ExternParseResult &out)
{
    TraceReader reader;
    if (!reader.openBuffer(bytes)) {
        out.error = "bin2: " + reader.error();
        return;
    }
    CtrlTraceRecord rec;
    while (reader.next(rec)) {
        ExternRecord r;
        // Controller records carry (channel, wordline) rather than a
        // byte address; synthesize a line address that preserves the
        // row/channel structure. The replay footprint fold keeps the
        // result in range whatever the geometry was.
        std::uint64_t lineIdx =
            (std::uint64_t{rec.channel} << 16) | rec.wordline;
        r.addr = lineIdx * lineBytes;
        r.isWrite = rec.kind == CtrlTraceRecord::Kind::Write;
        r.cycle = rec.tick;
        r.lrsCount = r.isWrite ? rec.lrsCount : 0xffff;
        out.records.push_back(r);
    }
    if (!reader.ok()) {
        out.error = "bin2: " + reader.error();
        return;
    }
    if (out.records.empty())
        out.error = "bin2: trace contains no records";
}

} // anonymous namespace

ExternParseResult
parseExternTrace(const std::string &bytes)
{
    ExternParseResult out;
    out.format = looksLikeBin2(bytes) ? ExternTraceFormat::Bin2
                                      : ExternTraceFormat::Dramsim3;
    out.crc32 = crc32(bytes.data(), bytes.size());
    if (out.format == ExternTraceFormat::Bin2)
        parseBin2(bytes, out);
    else
        parseDramsim3(bytes, out);
    if (!out.ok())
        out.records.clear();
    return out;
}

std::shared_ptr<const ExternParseResult>
loadExternTrace(const std::string &path)
{
    static std::mutex mutex;
    static std::map<std::string,
                    std::shared_ptr<const ExternParseResult>>
        cache;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = cache.find(path);
        if (it != cache.end())
            return it->second;
    }
    auto result = std::make_shared<ExternParseResult>();
    std::ifstream is(path, std::ios::binary);
    if (!is.good()) {
        result->error = "cannot read trace file '" + path + "'";
    } else {
        std::ostringstream buffer;
        buffer << is.rdbuf();
        *result = parseExternTrace(buffer.str());
    }
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(path);
    if (it != cache.end())
        return it->second; // lost a benign race; keep the first
    cache.emplace(path, result);
    return result;
}

ExternalTraceSource::ExternalTraceSource(
    std::shared_ptr<const ExternParseResult> trace,
    const ExternTraceOptions &options, std::uint64_t seed)
    : trace_(std::move(trace)), options_(options),
      // Mixed application content for payload synthesis; only used
      // in Pattern mode but cheap to keep unconditionally.
      pattern_(PatternMix{3, 2, 1, 1, 1, 1}), rng_(seed)
{
    ladder_assert(trace_ != nullptr && trace_->ok(),
                  "external trace source built from a failed parse");
    ladder_assert(!trace_->records.empty(),
                  "external trace source built from an empty trace");
    ladder_assert(options_.footprintPages > 0,
                  "external trace footprint must be at least a page");
    lastCycle_ = trace_->records.front().cycle;
}

std::uint64_t
ExternalTraceSource::footprintBytes() const
{
    return options_.footprintPages * std::uint64_t{4096};
}

std::uint64_t
ExternalTraceSource::records() const
{
    return trace_->records.size();
}

std::array<std::uint8_t, 8>
ExternalTraceSource::synthesizeWord(const ExternRecord &r)
{
    if (options_.content == ExternContentMode::Pattern ||
        r.lrsCount == 0xffff)
        return pattern_.generateWord(rng_);
    // Reconstruct a word whose popcount tracks the recorded per-write
    // LRS count (0..512 across the wordline -> 0..64 bits per word),
    // preserving the original run's content-latency profile.
    std::uint64_t lrs = std::min<std::uint64_t>(r.lrsCount, 512);
    unsigned bits =
        static_cast<unsigned>((lrs * 64 + 256) / 512); // rounded
    std::array<std::uint8_t, 8> out{};
    std::uint64_t word = 0;
    if (bits >= 64) {
        word = ~std::uint64_t{0};
    } else {
        unsigned set = 0;
        while (set < bits) {
            std::uint64_t mask = std::uint64_t{1}
                                 << rng_.nextBounded(64);
            if (!(word & mask)) {
                word |= mask;
                ++set;
            }
        }
    }
    std::memcpy(out.data(), &word, sizeof(word));
    return out;
}

TraceRecord
ExternalTraceSource::next()
{
    const ExternRecord &r = trace_->records[cursor_];
    if (++cursor_ >= trace_->records.size()) {
        cursor_ = 0;
        ++loops_;
    }

    TraceRecord rec;
    // Inter-request gap from the trace's own cycle stamps, clamped so
    // one giant gap cannot stall the core model forever. Replay loops
    // and out-of-order stamps degrade to back-to-back requests.
    std::uint64_t gap =
        r.cycle > lastCycle_ ? r.cycle - lastCycle_ : 0;
    lastCycle_ = r.cycle;
    rec.nonMemBefore =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(gap, 256));
    rec.isWrite = r.isWrite;

    // Fold the trace's line index into the replay footprint: strides
    // and row reuse survive, and every access lands in the region the
    // System carved out for this core.
    const std::uint64_t linesInSet = footprintBytes() / lineBytes;
    std::uint64_t lineIdx = (r.addr / lineBytes) % linesInSet;
    rec.lineAddr = lineIdx * lineBytes;

    if (rec.isWrite) {
        rec.storeOffset =
            static_cast<unsigned>(rng_.nextBounded(8)) * 8;
        rec.storeData = synthesizeWord(r);
    }
    return rec;
}

} // namespace ladder
