/**
 * @file
 * Wear-policy knobs shared by the wear-leveling benches and demos
 * (§6.4). Kept header-only so the experiment config can embed them
 * without linking the wear library; the registry in
 * sim/config_resolve exposes each field as `wear.*`.
 */

#ifndef LADDER_WEAR_POLICY_HH
#define LADDER_WEAR_POLICY_HH

namespace ladder
{

/** Tunables for Start-Gap leveling and lifetime estimation. */
struct WearPolicy
{
    /** Data writes between Start-Gap gap movements (paper: 100). */
    unsigned startGapPsi = 100;
    /** Mean cell endurance in writes (lifetime estimation). */
    double cellEndurance = 1e8;
    /**
     * Fraction of ideal write spreading the deployed wear-leveling
     * achieves (Start-Gap ~0.5).
     */
    double levelingEfficiency = 0.5;
};

} // namespace ladder

#endif // LADDER_WEAR_POLICY_HH
