/**
 * @file
 * Cross-run stats querying: load any number of sweep.json /
 * stats.json files (see stats_export.hh for the schemas) or
 * attribution traces (trace.attribution=1; see trace_sink.hh),
 * flatten each into a dotted-name -> value map, select names with
 * shell-style globs, and diff two runs with a relative regression
 * threshold.
 * This is the engine behind the `ladder_query` CLI; it lives in the
 * library so tests can drive the exact merge/select/diff logic (and
 * the CLI exit codes) against committed fixtures.
 *
 * Flattened names:
 *   stats.json  -> result.ipc, resolved_config.ctrl.queue-depth,
 *                  solver.iterations, ctrl.write_latency.mean
 *                  (stat groups under their own group name, averages
 *                  as .mean/.min/.max/.sum/.count, histogram bucket
 *                  count arrays omitted)
 *   sweep.json  -> <run>.ipc, <run>.avg_read_latency_ns, ... per cell
 *                  (run = "<scheme>__<workload>")
 *   trace       -> blame.writes and
 *                  blame.<component>.{p50_ns,p99_ns,max_ns,mean_ns,
 *                  share_pct} over the run's data writes (component
 *                  = dep, queue, bank, rcd, base, location, content,
 *                  scheme; exact nearest-rank percentiles of the
 *                  per-write ticks; share_pct = the component's
 *                  percent of all blame)
 *
 * A trace is a trace.csv/trace.bin file, a run directory holding one
 * (names as above), or a trace-out sweep directory of run
 * directories (each name under a "<run>." prefix, like sweep.json
 * cells). A directory is read as a trace only when it holds no
 * sweep.json or stats.json. So the old blame diff is
 *
 *   ladder_query diff '*blame.*.mean_ns' A B threshold=0.1
 */

#ifndef LADDER_SIM_STATS_QUERY_HH
#define LADDER_SIM_STATS_QUERY_HH

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/json.hh"

namespace ladder
{

/** One loaded run: label (the CLI argument) plus flat stats. */
struct StatSource
{
    std::string label;
    std::map<std::string, double> values;
};

/**
 * Shell-style glob over stat names: `*` matches any run of
 * characters (including '.'), `?` any single character; everything
 * else is literal. An empty pattern matches everything.
 */
bool statGlobMatch(const std::string &pattern,
                   const std::string &name);

/**
 * Flatten one parsed sweep.json or stats.json document
 * (auto-detected by shape) into dotted names. Documents of neither
 * shape yield an empty map.
 */
std::map<std::string, double>
flattenStatsDocument(const JsonValue &doc);

/**
 * Load @p path — a sweep.json/stats.json file, a directory containing
 * one (sweep.json preferred), or an attribution trace (see the file
 * comment) — into @p out. Returns false with @p error set when
 * nothing loads, a file is empty or malformed, or a trace lacks the
 * attribution block.
 */
bool loadStatSource(const std::string &path, StatSource &out,
                    std::string &error);

/** One stat compared across two sources (diff mode). */
struct StatDiff
{
    std::string name;
    double base = 0.0;
    double other = 0.0;
    /** (other-base)/|base|; |other| when base == 0. */
    double relDelta = 0.0;
    /** |relDelta| exceeded the threshold. */
    bool flagged = false;
};

/**
 * Compare every glob-selected stat present in both sources. The
 * returned rows are name-ordered; `flagged` marks moves beyond
 * @p threshold in either direction.
 */
std::vector<StatDiff> diffStatSources(const StatSource &base,
                                      const StatSource &other,
                                      const std::string &glob,
                                      double threshold);

/**
 * The full `ladder_query` command: parse @p args (everything after
 * argv[0]), print the merged table or diff to @p out and errors to
 * @p err, and return the process exit code — 0 clean, 1 when a diff
 * found a regression, 2 on usage or load errors or when a diff
 * compared no stats.
 *
 *   ladder_query [GLOB] PATH...            merge into one table
 *   ladder_query [GLOB] PATH... --list-stats
 *                                          print the merged table's
 *                                          stat names, one per line
 *   ladder_query diff [GLOB] A B
 *                [threshold=REL]           flag |rel delta|>REL (0.02)
 *
 * Both modes accept format=table|csv|json (default table): csv emits
 * one row per stat, json a machine-readable document ({runs, stats}
 * for merge; {base, other, threshold, flagged, diffs} for diff). The
 * exit contract is format-independent.
 *
 * GLOB is any leading positional that does not name an existing
 * file or directory.
 */
int ladderQueryMain(const std::vector<std::string> &args,
                    std::ostream &out, std::ostream &err);

} // namespace ladder

#endif // LADDER_SIM_STATS_QUERY_HH
