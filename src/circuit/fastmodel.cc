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

    // The Newton iterate: the selected wordline's nodes and the
    // representative selected bitline's nodes.
    std::vector<double> vWl(m, 0.0);
    std::vector<double> vBl(n, vw);

    ResetEvaluation eval;
    const std::size_t maxIter = 200;
    const double tol = 2e-7;

    // One tridiagonal system per line, each solved in place: the
    // solution overwrites rhs, so no per-iteration copies are needed.
    std::vector<double> wlSub(m), wlDiag(m), wlSup(m), wlRhs(m);
    std::vector<double> blSub(n), blDiag(n), blSup(n), blRhs(n);
    // Each selected cell's tangent at the iterate.
    std::vector<CellCurrent> sel(nSel);

    std::vector<double> drops(nSel, vw);
    double biasPower = 0.0;
    double drvPower = 0.0;

    // Every cell is linearized on its tangent at the iterate,
    // I(d) ~ i0 + g (d - d0) with g = dI/dV, so each line solve is one
    // Newton step in that line's nodes. The selected cells couple the
    // two lines: their tangents sit on the diagonal of the wordline
    // solve against the bitline iterate, then on the diagonal of the
    // bitline solve against the wordline just solved.
    for (std::size_t iter = 0; iter < maxIter; ++iter) {
        const double blAtSelOld = vBl[cond.wordline];
        for (std::size_t k = 0; k < nSel; ++k)
            sel[k] = cell_.currentAndSlope(CellState::LRS,
                                           blAtSelOld - vWl[blBase + k]);

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
                // Fully selected cell, injecting I(vBl - vWl).
                const CellCurrent &c = sel[j - blBase];
                wlDiag[j] += c.slope;
                wlRhs[j] += c.amps + c.slope * vWl[j];
            } else {
                // Half-selected cell, drawing I(vb - vWl) from the V/2
                // bias plane.
                const CellCurrent c =
                    cell_.currentAndSlope(wlState[j], vb - vWl[j]);
                const double i0 = c.amps * params_.wlSneakScale;
                const double g = c.slope * params_.wlSneakScale;
                wlDiag[j] += g;
                wlRhs[j] += i0 + g * vWl[j];
                biasPower += vb * i0;
            }
        }
        solveTridiagonal(wlSub, wlDiag, wlSup, wlRhs);
        const std::vector<double> &newWl = wlRhs;

        // --- Selected bitline solve (driver at i = 0 at Vw). ---
        // All selected bitlines share identical structure and loads
        // and carry cell currents within a fraction of a percent of
        // each other (they differ only through adjacent wordline
        // nodes), so one representative line carrying the mean of the
        // selected cells' linearized currents stands for all of them.
        // The mean is taken over the per-cell tangents, not one tangent
        // at the mean drop, which would move the fixed point. The
        // per-cell drops still differ through the wordline side.
        double selDiag = 0.0;
        double selRhs = 0.0;
        for (std::size_t k = 0; k < nSel; ++k) {
            const CellCurrent &c = sel[k];
            const double d0 = blAtSelOld - vWl[blBase + k];
            selDiag += c.slope;
            selRhs += -(c.amps - c.slope * d0) +
                      c.slope * newWl[blBase + k];
        }
        selDiag /= static_cast<double>(nSel);
        selRhs /= static_cast<double>(nSel);

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
                blDiag[i] += selDiag;
                blRhs[i] += selRhs;
            } else {
                // Half-selected cell, sinking I(vBl - vb) into the V/2
                // bias plane.
                const CellCurrent c =
                    cell_.currentAndSlope(blState[i], vBl[i] - vb);
                const double i0 = c.amps * params_.blSneakScale;
                const double g = c.slope * params_.blSneakScale;
                blDiag[i] += g;
                blRhs[i] += g * vBl[i] - i0;
            }
        }
        solveTridiagonal(blSub, blDiag, blSup, blRhs);
        const std::vector<double> &newBl = blRhs;
        const double blAtSel = newBl[cond.wordline];
        drvPower = static_cast<double>(nSel) * vw * gOut *
                   (vw - newBl[0]);

        // --- Take the full step. ---
        // std::max drops a NaN delta, so finiteness is tracked apart.
        double maxDelta = 0.0;
        bool finite = true;
        for (std::size_t k = 0; k < nSel; ++k)
            drops[k] = std::abs(blAtSel - newWl[blBase + k]);
        for (std::size_t j = 0; j < m; ++j) {
            maxDelta = std::max(maxDelta, std::abs(newWl[j] - vWl[j]));
            finite = finite && std::isfinite(newWl[j]);
            vWl[j] = newWl[j];
        }
        for (std::size_t i = 0; i < n; ++i) {
            maxDelta = std::max(maxDelta, std::abs(newBl[i] - vBl[i]));
            finite = finite && std::isfinite(newBl[i]);
            vBl[i] = newBl[i];
        }

        eval.iterations = iter + 1;
        if (!finite) {
            // Diverged: not converged, and no drop is meaningful.
            std::fill(drops.begin(), drops.end(),
                      std::numeric_limits<double>::quiet_NaN());
            break;
        }
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
