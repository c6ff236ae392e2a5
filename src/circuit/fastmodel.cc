#include "fastmodel.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.hh"
#include "common/profiler.hh"
#include "solvers.hh"

namespace ladder
{

SneakPathModel::SneakPathModel(const CrossbarParams &params)
    : params_(params), cell_(params)
{
}

ResetEvaluation
SneakPathModel::evaluate(const ResetCondition &cond) const
{
    PROF_SCOPE("fastmodel_solve");
    const std::size_t n = params_.rows;
    const std::size_t m = params_.cols;
    const std::size_t nSel = params_.selectedCells;
    ladder_assert(cond.wordline < n, "wordline out of range");
    ladder_assert((cond.byteOffset + 1) * nSel <= m,
                  "byte offset out of range");

    const double vw = params_.writeVolts;
    const double vb = params_.biasVolts;
    const double gWire = 1.0 / params_.wireOhms;
    const double gIn = 1.0 / params_.inputOhms;
    const double gOut = 1.0 / params_.outputOhms;

    const std::size_t blBase = cond.byteOffset * nSel;

    // Worst-case LRS placement on the selected wordline: cluster at the
    // far (high-index) end, skipping the selected byte columns.
    std::vector<CellState> wlState(m, CellState::HRS);
    {
        unsigned placed = 0;
        for (std::size_t j = m; j-- > 0 && placed < cond.wlLrsCount;) {
            if (j >= blBase && j < blBase + nSel)
                continue;
            wlState[j] = CellState::LRS;
            ++placed;
        }
    }
    // Worst-case LRS placement on the selected bitlines: far end,
    // skipping the selected row.
    std::vector<CellState> blState(n, CellState::HRS);
    {
        unsigned placed = 0;
        for (std::size_t i = n; i-- > 0 && placed < cond.blLrsCount;) {
            if (i == cond.wordline)
                continue;
            blState[i] = CellState::LRS;
            ++placed;
        }
    }

    // State of the fixed-point loop.
    std::vector<double> vWl(m, 0.0);            // selected WL nodes
    std::vector<double> vBl(n, vw);             // selected BL nodes
                                                // (shared shape; each
                                                // selected BL carries its
                                                // own current below)
    std::vector<double> cellCurrent(nSel, 0.0); // per selected cell

    // Initial guess for the cell currents: the nominal LRS current at
    // the ideal drop Vw.
    for (auto &i : cellCurrent)
        i = cell_.current(CellState::LRS, vw);

    ResetEvaluation eval;
    const std::size_t maxIter = 200;
    const double tol = 2e-7;
    const double damping = 0.35;

    // One tridiagonal system per line, each solved in place: the
    // solution overwrites rhs, so no per-iteration copies are needed.
    std::vector<double> wlSub(m), wlDiag(m), wlSup(m), wlRhs(m);
    std::vector<double> blSub(n), blDiag(n), blSup(n), blRhs(n);

    std::vector<double> drops(nSel, vw);
    double biasPower = 0.0;
    double drvPower = 0.0;

    for (std::size_t iter = 0; iter < maxIter; ++iter) {
        // --- Selected wordline solve (driver to ground at j = 0). ---
        std::fill(wlDiag.begin(), wlDiag.end(), 0.0);
        std::fill(wlRhs.begin(), wlRhs.end(), 0.0);
        biasPower = 0.0;
        for (std::size_t j = 0; j < m; ++j) {
            if (j > 0) {
                wlSub[j] = -gWire;
                wlDiag[j] += gWire;
            }
            if (j + 1 < m) {
                wlSup[j] = -gWire;
                wlDiag[j] += gWire;
            }
            if (j == 0)
                wlDiag[j] += gIn; // grounded driver, no RHS term
            if (j >= blBase && j < blBase + nSel) {
                // Fully selected cell: known current injection.
                wlRhs[j] += cellCurrent[j - blBase];
            } else {
                // Half-selected cell shunting to the V/2 bias plane.
                double drop = vb - vWl[j];
                double g = cell_.conductance(wlState[j], drop) *
                           params_.wlSneakScale;
                wlDiag[j] += g;
                wlRhs[j] += g * vb;
                biasPower += vb * g * drop;
            }
        }
        solveTridiagonal(wlSub, wlDiag, wlSup, wlRhs);
        const std::vector<double> &newWl = wlRhs;

        // --- Selected bitline solve (driver at i = 0 at Vw). ---
        // All selected bitlines share identical structure and loads
        // and carry cell currents within a fraction of a percent of
        // each other (they differ only through adjacent wordline
        // nodes), so one representative line solved with the mean
        // cell current stands for all of them. The per-cell drops
        // still differ through the wordline side.
        double meanCurrent = 0.0;
        for (double i : cellCurrent)
            meanCurrent += i;
        meanCurrent /= static_cast<double>(nSel);

        std::fill(blDiag.begin(), blDiag.end(), 0.0);
        std::fill(blRhs.begin(), blRhs.end(), 0.0);
        for (std::size_t i = 0; i < n; ++i) {
            if (i > 0) {
                blSub[i] = -gWire;
                blDiag[i] += gWire;
            }
            if (i + 1 < n) {
                blSup[i] = -gWire;
                blDiag[i] += gWire;
            }
            if (i == 0) {
                blDiag[i] += gOut;
                blRhs[i] += gOut * vw;
            }
            if (i == cond.wordline) {
                blRhs[i] -= meanCurrent;
            } else {
                double drop = vBl[i] - vb;
                double g = cell_.conductance(blState[i], drop) *
                           params_.blSneakScale;
                blDiag[i] += g;
                blRhs[i] += g * vb;
            }
        }
        solveTridiagonal(blSub, blDiag, blSup, blRhs);
        const std::vector<double> &newBl = blRhs;
        const double blAtSel = newBl[cond.wordline];
        drvPower = static_cast<double>(nSel) * vw * gOut *
                   (vw - newBl[0]);

        // --- Cell current update with damping. ---
        // std::max drops a NaN delta, so finiteness is tracked apart.
        double maxDelta = 0.0;
        bool finite = true;
        for (std::size_t k = 0; k < nSel; ++k) {
            double drop = blAtSel - newWl[blBase + k];
            double iNew = cell_.current(CellState::LRS, drop);
            double iNext =
                damping * cellCurrent[k] + (1.0 - damping) * iNew;
            maxDelta =
                std::max(maxDelta, std::abs(iNext - cellCurrent[k]));
            finite = finite && std::isfinite(iNext);
            cellCurrent[k] = iNext;
            drops[k] = std::abs(drop);
        }
        for (std::size_t j = 0; j < m; ++j) {
            double next = damping * vWl[j] + (1.0 - damping) * newWl[j];
            maxDelta = std::max(maxDelta, std::abs(next - vWl[j]));
            finite = finite && std::isfinite(next);
            vWl[j] = next;
        }
        for (std::size_t i = 0; i < n; ++i) {
            double next = damping * vBl[i] + (1.0 - damping) * newBl[i];
            maxDelta = std::max(maxDelta, std::abs(next - vBl[i]));
            finite = finite && std::isfinite(next);
            vBl[i] = next;
        }

        eval.iterations = iter + 1;
        if (!finite) {
            // Diverged: not converged, and no drop is meaningful.
            std::fill(drops.begin(), drops.end(),
                      std::numeric_limits<double>::quiet_NaN());
            break;
        }
        // Current scale is ~1e-4 A, voltage ~1 V; a combined absolute
        // tolerance works for both.
        if (maxDelta < tol) {
            eval.converged = true;
            break;
        }
    }

    eval.minDropVolts = *std::min_element(drops.begin(), drops.end());
    eval.maxDropVolts = *std::max_element(drops.begin(), drops.end());
    eval.sourcePowerWatts = drvPower + std::max(biasPower, 0.0);
    return eval;
}

} // namespace ladder
