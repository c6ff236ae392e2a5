/**
 * @file
 * Trace inspection CLI over the TraceReader library: dump, filter,
 * summarize, or list the chunk index of any trace the simulator can
 * emit (CSV or the v2 chunked binary).
 *
 *   ./trace_cat <trace-file> [mode=dump|summary|chunks]
 *               [kind=W|R] [channel=<N>]
 *               [min-tick=<T>] [max-tick=<T>]
 *               [limit=<N>]      (dump: stop after N matching records)
 *               [chunk=<I>]      (v2: start at chunk I via the index)
 *   ./trace_cat --help-config   (every key with its range)
 *
 * dump     print matching records as CSV rows (with the header)
 * summary  one aggregate block: counts, tick span, latency means/maxes
 * chunks   the v2 chunk index (offset, records, CRC per chunk)
 *
 * Exits non-zero with a message on stderr when the trace fails
 * validation (bad magic, truncation, CRC mismatch, ...), making it
 * usable as a cheap integrity check in scripts and CI.
 */

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common/param_registry.hh"
#include "ctrl/trace_reader.hh"
#include "sim/config_resolve.hh"

using namespace ladder;

namespace
{

/** trace_cat's key=value options; -1 means "not given". */
struct TraceCatOptions
{
    std::string mode = "dump";
    std::string kind; //!< "" = both kinds
    std::int64_t channel = -1;
    std::uint64_t minTick = 0;
    std::int64_t maxTick = -1;
    std::int64_t limit = -1;
    std::int64_t chunk = -1;
};

#define TRACE_CAT_FIELD(field) \
    [](TraceCatOptions &o) -> decltype(o.field) & { return o.field; }

ParamRegistry<TraceCatOptions>
traceCatRegistry()
{
    constexpr std::int64_t maxInt =
        std::numeric_limits<std::int64_t>::max();
    ParamRegistry<TraceCatOptions> reg;
    reg.addChoice("mode", TRACE_CAT_FIELD(mode), "Output mode",
                  {"dump", "summary", "chunks"});
    reg.addChoice("kind", TRACE_CAT_FIELD(kind),
                  "dump: only writes (W) or reads (R)", {"W", "R"});
    reg.addInt<std::int64_t>("channel", TRACE_CAT_FIELD(channel),
                             "dump: only this channel (-1 = all)", -1,
                             255);
    reg.addInt<std::uint64_t>("min-tick", TRACE_CAT_FIELD(minTick),
                              "dump: first tick of the window");
    reg.addInt<std::int64_t>(
        "max-tick", TRACE_CAT_FIELD(maxTick),
        "dump: last tick of the window (-1 = unbounded)", -1, maxInt);
    reg.addInt<std::int64_t>(
        "limit", TRACE_CAT_FIELD(limit),
        "dump: stop after N matching records (-1 = all)", -1, maxInt);
    reg.addInt<std::int64_t>(
        "chunk", TRACE_CAT_FIELD(chunk),
        "v2: start at chunk I via the index (-1 = first)", -1, maxInt);
    return reg;
}

} // namespace

int
main(int argc, char **argv)
try {
    const ParamRegistry<TraceCatOptions> reg = traceCatRegistry();
    TraceCatOptions opts;
    const std::vector<std::string> positional =
        reg.applyArgs(opts, argc, argv);
    if (positional.size() == 1 && positional[0] == "--help-config") {
        reg.help(std::cout, TraceCatOptions{});
        return 0;
    }
    if (positional.size() != 1) {
        std::fprintf(stderr,
                     "usage: trace_cat <trace-file> "
                     "[mode=dump|summary|chunks] [kind=W|R] "
                     "[channel=N] [min-tick=T] [max-tick=T] "
                     "[limit=N] [chunk=I]\n");
        return 2;
    }
    const std::string &path = positional[0];

    TraceReader reader;
    if (!reader.open(path)) {
        std::fprintf(stderr, "trace_cat: %s: %s\n", path.c_str(),
                     reader.error().c_str());
        return 1;
    }

    if (opts.mode == "chunks") {
        if (reader.chunkCount() == 0) {
            std::fprintf(stderr,
                         "trace_cat: %s: no chunk index (only the v2 "
                         "format is chunked)\n",
                         path.c_str());
            return 1;
        }
        std::printf("chunk,first_record,records\n");
        for (std::size_t i = 0; i < reader.chunkCount(); ++i) {
            std::printf("%zu,%" PRIu64 ",%" PRIu32 "\n", i,
                        reader.chunkFirstRecord(i),
                        reader.chunkRecords(i));
        }
        return 0;
    }

    if (opts.chunk >= 0 &&
        !reader.seekChunk(static_cast<std::size_t>(opts.chunk))) {
        std::fprintf(stderr, "trace_cat: %s: %s\n", path.c_str(),
                     reader.error().c_str());
        return 1;
    }

    if (opts.mode == "summary") {
        TraceSummary s = summarizeTrace(reader);
        if (!reader.ok()) {
            std::fprintf(stderr, "trace_cat: %s: %s\n", path.c_str(),
                         reader.error().c_str());
            return 1;
        }
        std::printf("records        %" PRIu64 " (%" PRIu64
                    " writes, %" PRIu64 " reads)\n",
                    s.records, s.writes, s.reads);
        if (s.records > 0) {
            std::printf("tick span      %" PRIu64 " .. %" PRIu64 "\n",
                        s.firstTick, s.lastTick);
        }
        if (s.writes > 0) {
            std::printf("write latency  mean %.3f ns, max %.3f ns\n",
                        s.writeLatencySumNs /
                            static_cast<double>(s.writes),
                        static_cast<double>(s.maxWriteLatencyNs));
        }
        if (s.reads > 0) {
            std::printf("read latency   mean %.3f ns, max %.3f ns\n",
                        s.readLatencySumNs /
                            static_cast<double>(s.reads),
                        static_cast<double>(s.maxReadLatencyNs));
        }
        std::printf("max queue      %" PRIu32 "\n", s.maxQueueDepth);
        std::printf("max lrs_count  %u\n",
                    static_cast<unsigned>(s.maxLrsCount));
        for (std::size_t ch = 0; ch < s.perChannel.size(); ++ch) {
            if (s.perChannel[ch] > 0)
                std::printf("channel %zu      %" PRIu64 " records\n",
                            ch, s.perChannel[ch]);
        }
        return 0;
    }

    // Push the tick window down to the reader: on v2 traces, chunks
    // whose index range falls outside [min-tick, max-tick] are
    // skipped without being CRC-checked or decoded. The per-record
    // filter below still trims the boundary chunks exactly.
    if (opts.minTick > 0 || opts.maxTick >= 0) {
        reader.setTickWindow(
            opts.minTick, opts.maxTick >= 0
                              ? static_cast<std::uint64_t>(opts.maxTick)
                              : ~std::uint64_t{0});
    }

    std::printf("type,tick,channel,wordline,bitline,lrs_count,"
                "latency_ns,queue_depth\n");
    CtrlTraceRecord rec;
    std::int64_t printed = 0;
    while (reader.next(rec)) {
        char type =
            rec.kind == CtrlTraceRecord::Kind::Write ? 'W' : 'R';
        if (!opts.kind.empty() && opts.kind[0] != type)
            continue;
        if (opts.channel >= 0 && rec.channel != opts.channel)
            continue;
        if (rec.tick < opts.minTick)
            continue;
        if (opts.maxTick >= 0 &&
            rec.tick > static_cast<std::uint64_t>(opts.maxTick))
            continue;
        std::printf("%c,%" PRIu64 ",%u,%u,%u,%u,%.3f,%" PRIu32 "\n",
                    type, rec.tick,
                    static_cast<unsigned>(rec.channel),
                    static_cast<unsigned>(rec.wordline),
                    static_cast<unsigned>(rec.bitline),
                    static_cast<unsigned>(rec.lrsCount),
                    static_cast<double>(rec.latencyNs),
                    rec.queueDepth);
        if (opts.limit >= 0 && ++printed >= opts.limit)
            break;
    }
    if (!reader.ok()) {
        std::fprintf(stderr, "trace_cat: %s: %s\n", path.c_str(),
                     reader.error().c_str());
        return 1;
    }
    return 0;
} catch (...) {
    return fatalExitCode();
}
