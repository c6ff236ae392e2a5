#include "workload_frontend.hh"

#include <functional>

#include "common/log.hh"
#include "common/param_registry.hh"
#include "common/rng.hh"

namespace ladder
{

namespace
{

constexpr const char tracePrefix[] = "trace:";
constexpr std::size_t tracePrefixLen = sizeof(tracePrefix) - 1;

/**
 * The frontend seed formula, matching workloadByName's so every
 * workload kind draws from the same well-mixed family of streams.
 */
std::uint64_t
frontendSeed(const std::string &name, std::uint64_t seedSalt)
{
    return mix64(0x1add3c0000ull ^ mix64(seedSalt + 0x9e37u) ^
                 std::hash<std::string>{}(name));
}

} // anonymous namespace

bool
isTraceWorkload(const std::string &name)
{
    return name.rfind(tracePrefix, 0) == 0;
}

std::string
traceWorkloadPath(const std::string &name)
{
    return isTraceWorkload(name) ? name.substr(tracePrefixLen) : "";
}

std::vector<std::string>
registeredWorkloadNames()
{
    std::vector<std::string> names = allWorkloadNames();
    for (const auto &family : familyWorkloadNames())
        names.push_back(family);
    return names;
}

void
validateWorkloadName(const std::string &name,
                     const std::string &source)
{
    if (isTraceWorkload(name)) {
        if (traceWorkloadPath(name).empty())
            fatal("%s: workload '%s' names no trace file (expected "
                  "trace:<path>)",
                  source.c_str(), name.c_str());
        return;
    }
    const std::vector<std::string> known = registeredWorkloadNames();
    for (const auto &candidate : known)
        if (candidate == name)
            return;
    fatal("%s: unknown workload '%s'%s", source.c_str(), name.c_str(),
          param_detail::suggestNearest(name, known).c_str());
}

std::shared_ptr<const ExternParseResult>
externTraceInfoFor(const std::string &name)
{
    ladder_assert(isTraceWorkload(name),
                  "'%s' is not a trace: workload", name.c_str());
    auto trace = loadExternTrace(traceWorkloadPath(name));
    if (!trace->ok())
        fatal("workload '%s': %s", name.c_str(),
              trace->error.c_str());
    return trace;
}

WorkloadInstance
makeWorkloadInstance(const std::string &name, std::uint64_t seedSalt,
                     double scale,
                     const WorkloadFrontendOptions &options)
{
    WorkloadInstance inst;
    inst.name = name;

    if (isTraceWorkload(name)) {
        auto trace = externTraceInfoFor(name);
        ExternTraceOptions opts;
        opts.footprintPages = options.externFootprintPages;
        opts.content =
            externContentModeFromName(options.externContent);
        inst.seed = frontendSeed(name, seedSalt);
        inst.source = std::make_unique<ExternalTraceSource>(
            std::move(trace), opts, inst.seed);
        // Replayed regions start as typical mixed content with a
        // zero bias — the trace tells us nothing about residency.
        inst.firstTouch = PatternMix{4, 2, 1, 1, 1, 1};
        return inst;
    }

    if (isFamilyWorkload(name)) {
        inst.seed = frontendSeed(name, seedSalt);
        inst.source = makeFamilySource(name, inst.seed, scale);
        inst.firstTouch = familyFirstTouchMix(name);
        return inst;
    }

    WorkloadParams params = workloadByName(name, seedSalt, scale);
    inst.source = std::make_unique<SyntheticTrace>(params);
    inst.firstTouch = params.pattern;
    inst.seed = params.seed;
    return inst;
}

} // namespace ladder
