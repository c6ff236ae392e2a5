/**
 * @file
 * Cross-run stats query CLI: merge any number of sweep.json /
 * stats.json outputs (stats-json=DIR runs) or attribution traces
 * (trace-out=DIR runs with trace.attribution=1) into one table,
 * select stats by glob, and diff two runs with a relative regression
 * threshold.
 *
 *   ./ladder_query runA/stats runB/stats
 *   ./ladder_query 'ctrl.*latency*' runA/ runB/
 *   ./ladder_query diff base/ candidate/ threshold=0.05
 *   ./ladder_query runA/ runB/ format=csv
 *   ./ladder_query diff base/ candidate/ format=json
 *   ./ladder_query '*blame.*' out/trace
 *   ./ladder_query diff '*blame.*.mean_ns' base/trace cand/trace threshold=0.1
 *
 * Diff mode exits 1 when any selected stat moved beyond the
 * threshold (default 2%) relative to the first run — wire it into CI
 * to gate perf/behaviour regressions on exported stats. Exit 2 marks
 * usage or load errors, traces recorded without attribution, and a
 * diff that compared no stats. All logic lives in sim/stats_query so
 * tests cover the same code path.
 */

#include <iostream>
#include <string>
#include <vector>

#include "sim/stats_query.hh"

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    return ladder::ladderQueryMain(args, std::cout, std::cerr);
}
