/**
 * @file
 * Full modified-nodal-analysis simulation of a ReRAM crossbar under the
 * V/2 write-biasing scheme (paper Fig. 1 and §5). Every wordline and
 * bitline is discretized into per-crosspoint nodes with wire parasitics;
 * cells couple the two planes through the nonlinear 1S1R law. A damped
 * Picard iteration linearizes the cell conductances; each iteration
 * runs one block Gauss-Seidel sweep that solves every wordline, then
 * every bitline, as a tridiagonal (Thomas) system.
 *
 * This is the reference ("HSPICE-accurate" in spirit) model. It is
 * O(rows*cols) unknowns per solve, so the memory-system simulator uses
 * the fast sneak-path model instead; tests cross-validate the two.
 */

#ifndef LADDER_CIRCUIT_MNA_HH
#define LADDER_CIRCUIT_MNA_HH

#include <cstddef>
#include <vector>

#include "cell_model.hh"
#include "reset_condition.hh"

namespace ladder
{

/** The cells selected by one mat write. */
struct WriteOperation
{
    std::size_t wordline = 0;
    std::vector<std::size_t> bitlines;
};

/** Full crossbar MNA simulator. */
class CrossbarMna
{
  public:
    explicit CrossbarMna(const CrossbarParams &params);

    /** Full node-level solution. */
    struct Solution
    {
        std::vector<double> wlVolts;   //!< rows*cols wordline nodes
        std::vector<double> blVolts;   //!< rows*cols bitline nodes
        std::vector<double> cellDrops; //!< |Vd| per selected cell
        double minDropVolts = 0.0;
        double sourcePowerWatts = 0.0;
        std::size_t picardIterations = 0;
        bool converged = false;
    };

    /**
     * Solve the crossbar for an explicit cell-state pattern.
     *
     * @param pattern rows*cols row-major cell states.
     * @param op The selected wordline/bitlines (cells forced to LRS
     *           as RESET targets).
     */
    Solution solve(const std::vector<CellState> &pattern,
                   const WriteOperation &op) const;

    /**
     * Evaluate an abstract ResetCondition by materializing the
     * worst-case pattern (LRS cells clustered at the far ends) and
     * running the full solve.
     */
    ResetEvaluation evaluate(const ResetCondition &cond) const;

    /**
     * Build the worst-case pattern for a condition: wlLrsCount LRS
     * cells packed at the far end of the selected wordline and
     * blLrsCount packed at the far end of each selected bitline.
     */
    std::vector<CellState>
    worstCasePattern(const ResetCondition &cond) const;

    /** The selected bitlines implied by a condition's byte offset. */
    std::vector<std::size_t>
    selectedBitlines(const ResetCondition &cond) const;

    const CellModel &cellModel() const { return cell_; }

  private:
    CrossbarParams params_;
    CellModel cell_;

    std::size_t wlNode(std::size_t i, std::size_t j) const;
    std::size_t blNode(std::size_t i, std::size_t j) const;
};

} // namespace ladder

#endif // LADDER_CIRCUIT_MNA_HH
