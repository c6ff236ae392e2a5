/**
 * @file
 * Device lifetime estimation (paper §6.4). A crossbar's endurance is
 * set by its worst cell; wear-leveling spreads writes so the system
 * lifetime approaches the ideal (total endurance / write rate). The
 * model consumes the controller's per-page write counts and reports
 * lifetimes relative to a baseline run, which is how the paper states
 * its results (e.g. LADDER-Hybrid retains 97.1% of baseline lifetime).
 */

#ifndef LADDER_WEAR_LIFETIME_HH
#define LADDER_WEAR_LIFETIME_HH

#include <cstdint>
#include <unordered_map>

#include "reram/geometry.hh"

namespace ladder
{

/** Inputs/outputs of a lifetime estimate. */
struct LifetimeEstimate
{
    std::uint64_t totalWrites = 0;
    std::uint64_t maxPageWrites = 0;
    double unevenness = 1.0; //!< max / mean page writes
    /** Relative lifetime without wear-leveling (worst page bound). */
    double unleveledYears = 0.0;
    /** Relative lifetime with ideal-ish leveling (rate bound). */
    double leveledYears = 0.0;
};

/**
 * Estimate lifetime from per-page write counts.
 *
 * @param pageWrites Writes per page over the measured window.
 * @param windowSeconds Simulated duration of the window.
 * @param touchedPages Pages participating in leveling (the region
 *        writes spread over); 0 = use the touched set.
 * @param cellEnduranceWrites Per-cell endurance (1e8 typical ReRAM).
 * @param levelingEfficiency Fraction of ideal spreading the deployed
 *        wear-leveling achieves (Start-Gap ~0.5).
 */
LifetimeEstimate
estimateLifetime(const std::unordered_map<std::uint64_t,
                                          std::uint32_t> &pageWrites,
                 double windowSeconds,
                 std::uint64_t touchedPages = 0,
                 double cellEnduranceWrites = 1e8,
                 double levelingEfficiency = 0.5);

} // namespace ladder

#endif // LADDER_WEAR_LIFETIME_HH
