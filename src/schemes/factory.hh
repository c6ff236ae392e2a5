/**
 * @file
 * Construction of write schemes by name; the single place benches and
 * examples use to instantiate the evaluated designs.
 */

#ifndef LADDER_SCHEMES_FACTORY_HH
#define LADDER_SCHEMES_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "ctrl/scheme.hh"
#include "reram/timing_tables.hh"
#include "schemes/metadata_layout.hh"

namespace ladder
{

/** The evaluated write schemes (paper §6.1). */
enum class SchemeKind
{
    Baseline,
    Location,
    SplitReset,
    Blp,
    LadderBasic,
    LadderEst,
    LadderEstNoShift, //!< Fig. 15a ablation
    LadderHybrid,
    Oracle,
};

/** Options forwarded to scheme constructors. */
struct SchemeOptions
{
    /** LADDER-Hybrid's accurately tracked rows (0 = none). */
    unsigned hybridLowRows = 128;
};

/** All kinds in the paper's presentation order. */
std::vector<SchemeKind> allSchemeKinds();

/** Display name ("LADDER-Est", ...). */
std::string schemeKindName(SchemeKind kind);

/** Parse a display name back to a kind (fatal on unknown). */
SchemeKind schemeKindFromName(const std::string &name);

/**
 * Instantiate a scheme.
 *
 * @param kind Which design.
 * @param model The system's timing model (Split-reset derives its
 *        half-RESET tables from it).
 * @param layout Metadata layout (used by the LADDER variants).
 * @param opts Tuning knobs.
 */
std::shared_ptr<WriteScheme>
makeScheme(SchemeKind kind, const TimingModel &model,
           std::shared_ptr<MetadataLayout> layout,
           const SchemeOptions &opts = {});

} // namespace ladder

#endif // LADDER_SCHEMES_FACTORY_HH
