/**
 * @file
 * Fast sneak-path macromodel of a crossbar RESET.
 *
 * Instead of solving all rows*cols*2 MNA nodes, the model keeps only the
 * lines that matter to first order for the selected cells' voltage drop:
 * the selected wordline and the selected bitlines, each discretized into
 * per-crosspoint nodes. Half-selected cells hang off these lines as
 * voltage-dependent shunt loads to the V/2 bias (unselected lines are
 * assumed to sit at their driver potential, the standard approximation
 * in crossbar design-space studies). Each line is then a tridiagonal
 * system solved with the Thomas algorithm inside an undamped Newton
 * loop: every cell is linearized on its tangent dI/dV, and the
 * selected cells sit on the diagonal of both the wordline and the
 * bitline solve.
 *
 * Cost is O(rows + cols) per Newton iteration: about 0.35 ms per
 * operating point at 512x512 (~7 iterations of ~50 us), cheap enough
 * for the memory simulator to build full timing tables at startup.
 * Accuracy is validated against CrossbarMna in the test suite; that
 * model keeps a secant Picard loop, so the two reach the same fixed
 * point through different linearizations.
 */

#ifndef LADDER_CIRCUIT_FASTMODEL_HH
#define LADDER_CIRCUIT_FASTMODEL_HH

#include <cstddef>
#include <vector>

#include "cell_model.hh"
#include "reset_condition.hh"

namespace ladder
{

/** Fast 1-D coupled-line crossbar RESET evaluator. */
class SneakPathModel
{
  public:
    explicit SneakPathModel(const CrossbarParams &params);

    /** Evaluate one RESET operating point. */
    ResetEvaluation evaluate(const ResetCondition &cond) const;

    const CellModel &cellModel() const { return cell_; }
    const CrossbarParams &params() const { return params_; }

  private:
    CrossbarParams params_;
    CellModel cell_;
};

} // namespace ladder

#endif // LADDER_CIRCUIT_FASTMODEL_HH
