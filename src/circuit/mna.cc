#include "mna.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.hh"
#include "common/profiler.hh"
#include "solvers.hh"

namespace ladder
{

CrossbarMna::CrossbarMna(const CrossbarParams &params)
    : params_(params), cell_(params)
{
}

std::size_t
CrossbarMna::wlNode(std::size_t i, std::size_t j) const
{
    return i * params_.cols + j;
}

std::size_t
CrossbarMna::blNode(std::size_t i, std::size_t j) const
{
    return params_.rows * params_.cols + j * params_.rows + i;
}

std::vector<std::size_t>
CrossbarMna::selectedBitlines(const ResetCondition &cond) const
{
    std::vector<std::size_t> bls;
    const std::size_t base = cond.byteOffset * params_.selectedCells;
    for (std::size_t k = 0; k < params_.selectedCells; ++k) {
        std::size_t bl = base + k;
        ladder_assert(bl < params_.cols,
                      "selected bitline %zu beyond crossbar", bl);
        bls.push_back(bl);
    }
    return bls;
}

std::vector<CellState>
CrossbarMna::worstCasePattern(const ResetCondition &cond) const
{
    const std::size_t n = params_.rows;
    const std::size_t m = params_.cols;
    std::vector<CellState> pattern(n * m, CellState::HRS);
    const auto bls = selectedBitlines(cond);

    // LRS cells along the selected wordline: pack from the far end,
    // skipping the selected columns (those are forced LRS separately).
    unsigned placed = 0;
    for (std::size_t j = m; j-- > 0 && placed < cond.wlLrsCount;) {
        if (std::find(bls.begin(), bls.end(), j) != bls.end())
            continue;
        pattern[cond.wordline * m + j] = CellState::LRS;
        ++placed;
    }
    // LRS cells along each selected bitline: pack from the far end,
    // skipping the selected row.
    for (std::size_t bl : bls) {
        placed = 0;
        for (std::size_t i = n; i-- > 0 && placed < cond.blLrsCount;) {
            if (i == cond.wordline)
                continue;
            pattern[i * m + bl] = CellState::LRS;
            ++placed;
        }
    }
    return pattern;
}

CrossbarMna::Solution
CrossbarMna::solve(const std::vector<CellState> &pattern,
                   const WriteOperation &op) const
{
    PROF_SCOPE("mna_solve");
    const std::size_t n = params_.rows;
    const std::size_t m = params_.cols;
    ladder_assert(pattern.size() == n * m, "pattern size mismatch");
    ladder_assert(op.wordline < n, "selected wordline out of range");

    std::vector<CellState> states = pattern;
    for (std::size_t bl : op.bitlines) {
        ladder_assert(bl < m, "selected bitline out of range");
        // RESET targets are in LRS (they hold a '1' being cleared).
        states[op.wordline * m + bl] = CellState::LRS;
    }

    std::vector<bool> selectedBl(m, false);
    for (std::size_t bl : op.bitlines)
        selectedBl[bl] = true;

    const double vw = params_.writeVolts;
    const double vb = params_.biasVolts;
    const double gWire = 1.0 / params_.wireOhms;
    const double gIn = 1.0 / params_.inputOhms;
    const double gOut = 1.0 / params_.outputOhms;

    const std::size_t total = 2 * n * m;

    // Initial voltage guess: lines sit at their driver potentials.
    std::vector<double> volts(total);
    for (std::size_t i = 0; i < n; ++i) {
        double v = (i == op.wordline) ? 0.0 : vb;
        for (std::size_t j = 0; j < m; ++j)
            volts[wlNode(i, j)] = v;
    }
    for (std::size_t j = 0; j < m; ++j) {
        double v = selectedBl[j] ? vw : vb;
        for (std::size_t i = 0; i < n; ++i)
            volts[blNode(i, j)] = v;
    }

    Solution sol;
    const std::size_t maxPicard = 60;
    const double tol = 1e-7;

    // Each Picard iteration linearizes every cell at the current drop,
    // then runs one block Gauss-Seidel sweep over the two wire planes:
    // every wordline is one tridiagonal system against the bitline
    // voltages of the previous sweep, then every bitline is one
    // against the wordline voltages just solved. Wire couplings are
    // constant; the diagonals and right-hand sides are rebuilt per
    // line, and the solution overwrites the right-hand side.
    std::vector<double> x = volts;
    std::vector<double> g(n * m);
    std::vector<double> wlSub(m, -gWire), wlDiag(m), wlSup(m, -gWire),
        wlRhs(m);
    std::vector<double> blSub(n, -gWire), blDiag(n), blSup(n, -gWire),
        blRhs(n);
    for (std::size_t iter = 0; iter < maxPicard; ++iter) {
        // Cells: conductance linearized at the current voltage drop.
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < m; ++j) {
                double drop = volts[blNode(i, j)] - volts[wlNode(i, j)];
                double gCell = cell_.conductance(states[i * m + j], drop);
                // Half-selected cells carry the calibrated sneak
                // scales (see CrossbarParams).
                if (selectedBl[j] && i != op.wordline)
                    gCell *= params_.blSneakScale;
                else if (i == op.wordline && !selectedBl[j])
                    gCell *= params_.wlSneakScale;
                g[i * m + j] = gCell;
            }
        }

        // Wordlines: driver at column 0, cells to the bitline plane.
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < m; ++j) {
                wlDiag[j] = g[i * m + j] + (j > 0 ? gWire : 0.0) +
                            (j + 1 < m ? gWire : 0.0);
                wlRhs[j] = g[i * m + j] * x[blNode(i, j)];
            }
            wlDiag[0] += gIn;
            wlRhs[0] += gIn * ((i == op.wordline) ? 0.0 : vb);
            solveTridiagonal(wlSub, wlDiag, wlSup, wlRhs);
            std::copy(wlRhs.begin(), wlRhs.end(), x.begin() + wlNode(i, 0));
        }
        // Bitlines: driver at row 0, cells to the wordline plane.
        for (std::size_t j = 0; j < m; ++j) {
            for (std::size_t i = 0; i < n; ++i) {
                blDiag[i] = g[i * m + j] + (i > 0 ? gWire : 0.0) +
                            (i + 1 < n ? gWire : 0.0);
                blRhs[i] = g[i * m + j] * x[wlNode(i, j)];
            }
            blDiag[0] += gOut;
            blRhs[0] += gOut * (selectedBl[j] ? vw : vb);
            solveTridiagonal(blSub, blDiag, blSup, blRhs);
            std::copy(blRhs.begin(), blRhs.end(), x.begin() + blNode(0, j));
        }

        // std::max drops a NaN delta, so finiteness is tracked apart.
        double maxDelta = 0.0;
        bool finite = true;
        for (std::size_t k = 0; k < total; ++k) {
            double next = 0.5 * volts[k] + 0.5 * x[k];
            maxDelta = std::max(maxDelta, std::abs(next - volts[k]));
            finite = finite && std::isfinite(next);
            volts[k] = next;
        }
        sol.picardIterations = iter + 1;
        if (!finite)
            break; // diverged: not converged
        if (maxDelta < tol) {
            sol.converged = true;
            break;
        }
    }

    sol.wlVolts.assign(volts.begin(), volts.begin() + n * m);
    sol.blVolts.assign(volts.begin() + n * m, volts.end());

    sol.minDropVolts = std::numeric_limits<double>::max();
    for (std::size_t bl : op.bitlines) {
        double drop = volts[blNode(op.wordline, bl)] -
                      volts[wlNode(op.wordline, bl)];
        sol.cellDrops.push_back(std::abs(drop));
        sol.minDropVolts = std::min(sol.minDropVolts, std::abs(drop));
    }
    if (op.bitlines.empty())
        sol.minDropVolts = 0.0;

    // Total power delivered by all non-ground sources.
    double power = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double vSrc = (i == op.wordline) ? 0.0 : vb;
        double current = gIn * (vSrc - volts[wlNode(i, 0)]);
        power += vSrc * current;
    }
    for (std::size_t j = 0; j < m; ++j) {
        double vSrc = selectedBl[j] ? vw : vb;
        double current = gOut * (vSrc - volts[blNode(0, j)]);
        power += vSrc * current;
    }
    sol.sourcePowerWatts = power;
    return sol;
}

ResetEvaluation
CrossbarMna::evaluate(const ResetCondition &cond) const
{
    WriteOperation op;
    op.wordline = cond.wordline;
    op.bitlines = selectedBitlines(cond);
    Solution sol = solve(worstCasePattern(cond), op);

    ResetEvaluation eval;
    eval.minDropVolts = sol.minDropVolts;
    eval.maxDropVolts =
        sol.cellDrops.empty()
            ? 0.0
            : *std::max_element(sol.cellDrops.begin(),
                                sol.cellDrops.end());
    eval.sourcePowerWatts = sol.sourcePowerWatts;
    eval.iterations = sol.picardIterations;
    eval.converged = sol.converged;
    return eval;
}

} // namespace ladder
