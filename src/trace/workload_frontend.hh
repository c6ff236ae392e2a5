/**
 * @file
 * Workload frontend: the single seam through which the System obtains
 * a core's TraceSource. Three kinds of registry-declared workloads
 * resolve here, all selectable by name in sweep specs and on the
 * command line:
 *
 *  - the paper's synthetic benchmarks and mixes (trace/workloads),
 *  - the content-aware generator families (trace/workload_families),
 *  - external trace replay: any name of the form `trace:<path>`
 *    replays a DRAMsim3-style text trace or one of this repo's own
 *    bin2 controller traces (trace/extern_trace).
 *
 * Every instance carries its first-touch content mix and its derived
 * seed, so System construction stays a thin loop. Seed derivation for
 * pre-existing synthetic names is delegated to workloadByName and is
 * part of the golden-output contract — it must never change.
 */

#ifndef LADDER_TRACE_WORKLOAD_FRONTEND_HH
#define LADDER_TRACE_WORKLOAD_FRONTEND_HH

#include <memory>
#include <string>
#include <vector>

#include "trace/extern_trace.hh"
#include "trace/workload_families.hh"
#include "trace/workloads.hh"

namespace ladder
{

/**
 * Frontend knobs bound in the parameter registry (extern.*). Kept as
 * strings at this level so the registry's choice validation is the
 * single parser.
 */
struct WorkloadFrontendOptions
{
    std::uint64_t externFootprintPages = 1024;
    std::string externContent = "auto"; //!< auto | pattern
};

/** Whether @p name selects external replay (`trace:<path>`). */
bool isTraceWorkload(const std::string &name);

/** The `<path>` half of a `trace:<path>` name ("" otherwise). */
std::string traceWorkloadPath(const std::string &name);

/**
 * Every selectable fixed workload name: the paper's 16 plus the
 * generator families. `trace:<path>` names are open-ended and
 * validated structurally instead of against this list.
 */
std::vector<std::string> registeredWorkloadNames();

/**
 * Validate one workload display name (fixed names against the
 * registry, `trace:` names for a non-empty path); fatal() with a
 * near-miss suggestion on failure, naming @p source.
 */
void validateWorkloadName(const std::string &name,
                          const std::string &source);

/** A core's resolved workload: source + resident content + seed. */
struct WorkloadInstance
{
    std::unique_ptr<TraceSource> source;
    PatternMix firstTouch{};
    std::uint64_t seed = 0;
    std::string name;
};

/**
 * Resolve @p name into a live workload instance.
 *
 * @param seedSalt Mixed into the seed (distinct per core).
 * @param scale Working-set scale factor.
 * @param options Frontend knobs (external replay only).
 */
WorkloadInstance
makeWorkloadInstance(const std::string &name, std::uint64_t seedSalt,
                     double scale,
                     const WorkloadFrontendOptions &options = {});

/**
 * Provenance of an external trace for run manifests: loads (memoized)
 * and returns the parse result; fatal when the file is missing or
 * malformed — callers validate names before building manifests.
 */
std::shared_ptr<const ExternParseResult>
externTraceInfoFor(const std::string &name);

} // namespace ladder

#endif // LADDER_TRACE_WORKLOAD_FRONTEND_HH
