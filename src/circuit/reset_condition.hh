/**
 * @file
 * The abstract operating point a RESET latency evaluation is performed
 * at. Both the full MNA solver and the fast sneak-path model evaluate
 * the same condition so they can be cross-validated.
 */

#ifndef LADDER_CIRCUIT_RESET_CONDITION_HH
#define LADDER_CIRCUIT_RESET_CONDITION_HH

#include <compare>
#include <cstddef>

namespace ladder
{

/**
 * One RESET operating point in a single mat.
 *
 * A mat write RESETs up to `selectedCells` bits of one byte: the cells
 * on wordline @p wordline at bitlines [8*byteOffset, 8*byteOffset+7].
 * Content enters through the number of LRS (logical '1') cells on the
 * selected wordline and on each selected bitline; the evaluators place
 * those LRS cells in the worst-case (far-end) positions so the derived
 * latency is always sufficient.
 */
struct ResetCondition
{
    std::size_t wordline = 0;   //!< selected wordline index
    std::size_t byteOffset = 0; //!< selected byte slot (bitline / 8)
    unsigned wlLrsCount = 0;    //!< LRS cells along the selected WL
    unsigned blLrsCount = 0;    //!< LRS cells along each selected BL

    auto operator<=>(const ResetCondition &) const = default;
};

/** Electrical outcome of evaluating one ResetCondition. */
struct ResetEvaluation
{
    double minDropVolts = 0.0;      //!< worst (smallest) |Vd| among
                                    //!< the selected cells
    double maxDropVolts = 0.0;      //!< best |Vd| among selected cells
    double sourcePowerWatts = 0.0;  //!< total power from all sources
    std::size_t iterations = 0;     //!< nonlinear iterations used
    bool converged = false;         //!< a diverged (non-finite)
                                    //!< iterate leaves NaN drops
};

} // namespace ladder

#endif // LADDER_CIRCUIT_RESET_CONDITION_HH
