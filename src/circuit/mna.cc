#include "mna.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.hh"
#include "common/profiler.hh"
#include "solvers.hh"
#include "sparse.hh"

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

    std::vector<double> x = volts;
    for (std::size_t iter = 0; iter < maxPicard; ++iter) {
        std::vector<Triplet> trip;
        trip.reserve(10 * n * m);
        std::vector<double> rhs(total, 0.0);

        // Wordline wire segments and drivers.
        for (std::size_t i = 0; i < n; ++i) {
            double vSrc = (i == op.wordline) ? 0.0 : vb;
            std::size_t n0 = wlNode(i, 0);
            trip.push_back({n0, n0, gIn});
            rhs[n0] += gIn * vSrc;
            for (std::size_t j = 0; j + 1 < m; ++j) {
                std::size_t a = wlNode(i, j);
                std::size_t b = wlNode(i, j + 1);
                trip.push_back({a, a, gWire});
                trip.push_back({b, b, gWire});
                trip.push_back({a, b, -gWire});
                trip.push_back({b, a, -gWire});
            }
        }
        // Bitline wire segments and drivers.
        for (std::size_t j = 0; j < m; ++j) {
            double vSrc = selectedBl[j] ? vw : vb;
            std::size_t n0 = blNode(0, j);
            trip.push_back({n0, n0, gOut});
            rhs[n0] += gOut * vSrc;
            for (std::size_t i = 0; i + 1 < n; ++i) {
                std::size_t a = blNode(i, j);
                std::size_t b = blNode(i + 1, j);
                trip.push_back({a, a, gWire});
                trip.push_back({b, b, gWire});
                trip.push_back({a, b, -gWire});
                trip.push_back({b, a, -gWire});
            }
        }
        // Cells: conductance linearized at the current voltage drop.
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < m; ++j) {
                std::size_t a = wlNode(i, j);
                std::size_t b = blNode(i, j);
                double drop = volts[b] - volts[a];
                double g = cell_.conductance(states[i * m + j], drop);
                // Half-selected cells carry the calibrated sneak
                // scales (see CrossbarParams).
                if (selectedBl[j] && i != op.wordline)
                    g *= params_.blSneakScale;
                else if (i == op.wordline && !selectedBl[j])
                    g *= params_.wlSneakScale;
                trip.push_back({a, a, g});
                trip.push_back({b, b, g});
                trip.push_back({a, b, -g});
                trip.push_back({b, a, -g});
            }
        }

        SparseMatrix mat(total, std::move(trip));
        CgResult cg = conjugateGradient(mat, rhs, x, 1e-11);
        if (!cg.converged) {
            // Every Picard iteration of every bucket would repeat
            // this; one report per process is plenty.
            warn_once("crossbar MNA: CG stalled at residual %g",
                      cg.residualNorm);
        }

        double maxDelta = 0.0;
        for (std::size_t k = 0; k < total; ++k) {
            double next = 0.5 * volts[k] + 0.5 * x[k];
            maxDelta = std::max(maxDelta, std::abs(next - volts[k]));
            volts[k] = next;
        }
        sol.picardIterations = iter + 1;
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
