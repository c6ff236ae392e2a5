/** @file Tests for the full crossbar MNA solver. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "circuit/mna.hh"
#include "circuit/solvers.hh"
#include "common/rng.hh"

namespace ladder
{
namespace
{

CrossbarParams
smallParams(std::size_t n = 32)
{
    CrossbarParams p;
    p.rows = n;
    p.cols = n;
    return p;
}

TEST(Mna, ConvergesOnSmallCrossbar)
{
    CrossbarParams p = smallParams();
    CrossbarMna mna(p);
    ResetCondition cond{0, 0, 0, 0};
    ResetEvaluation eval = mna.evaluate(cond);
    EXPECT_TRUE(eval.converged);
    EXPECT_GT(eval.minDropVolts, 0.0);
    EXPECT_LE(eval.minDropVolts, p.writeVolts);
    EXPECT_GT(eval.sourcePowerWatts, 0.0);
}

TEST(Mna, NearCellSeesAlmostFullVoltage)
{
    CrossbarParams p = smallParams();
    CrossbarMna mna(p);
    ResetEvaluation eval = mna.evaluate({0, 0, 0, 0});
    // Best case: only the driver and a few wire segments drop.
    EXPECT_GT(eval.minDropVolts, 0.9 * p.writeVolts);
}

TEST(Mna, FartherCellsSeeLessVoltage)
{
    CrossbarParams p = smallParams();
    CrossbarMna mna(p);
    double near = mna.evaluate({0, 0, 0, 0}).minDropVolts;
    double farRow =
        mna.evaluate({p.rows - 1, 0, 0, 0}).minDropVolts;
    double farCorner =
        mna.evaluate({p.rows - 1, p.cols / 8 - 1, 0, 0}).minDropVolts;
    EXPECT_LT(farRow, near);
    EXPECT_LT(farCorner, farRow);
}

TEST(Mna, MoreWordlineLrsMeansLessVoltage)
{
    CrossbarParams p = smallParams();
    CrossbarMna mna(p);
    std::size_t lastSlot = p.cols / 8 - 1;
    double prev = 10.0;
    for (unsigned c : {0u, 8u, 16u, 24u}) {
        double drop =
            mna.evaluate({p.rows - 1, lastSlot, c, 0}).minDropVolts;
        EXPECT_LT(drop, prev) << "count " << c;
        prev = drop;
    }
}

TEST(Mna, MoreBitlineLrsMeansLessVoltage)
{
    CrossbarParams p = smallParams();
    CrossbarMna mna(p);
    std::size_t lastSlot = p.cols / 8 - 1;
    double low =
        mna.evaluate({p.rows - 1, lastSlot, 0, 24}).minDropVolts;
    double none =
        mna.evaluate({p.rows - 1, lastSlot, 0, 0}).minDropVolts;
    EXPECT_LT(low, none);
}

TEST(Mna, WorstCasePatternCounts)
{
    CrossbarParams p = smallParams(16);
    CrossbarMna mna(p);
    ResetCondition cond{3, 1, 5, 4};
    auto pattern = mna.worstCasePattern(cond);
    // Count LRS on the selected wordline outside the selected byte.
    unsigned onWl = 0;
    auto bls = mna.selectedBitlines(cond);
    for (std::size_t j = 0; j < p.cols; ++j) {
        bool selected =
            std::find(bls.begin(), bls.end(), j) != bls.end();
        if (!selected &&
            pattern[cond.wordline * p.cols + j] == CellState::LRS)
            ++onWl;
    }
    EXPECT_EQ(onWl, cond.wlLrsCount);
    // Count LRS on each selected bitline outside the selected row.
    for (std::size_t bl : bls) {
        unsigned onBl = 0;
        for (std::size_t i = 0; i < p.rows; ++i) {
            if (i != cond.wordline &&
                pattern[i * p.cols + bl] == CellState::LRS)
                ++onBl;
        }
        EXPECT_EQ(onBl, cond.blLrsCount);
    }
}

TEST(Mna, SelectedBitlinesFollowByteOffset)
{
    CrossbarParams p = smallParams(64);
    CrossbarMna mna(p);
    auto bls = mna.selectedBitlines({0, 3, 0, 0});
    ASSERT_EQ(bls.size(), 8u);
    for (unsigned k = 0; k < 8; ++k)
        EXPECT_EQ(bls[k], 24u + k);
}

TEST(Mna, AllSelectedCellDropsReported)
{
    CrossbarParams p = smallParams();
    CrossbarMna mna(p);
    WriteOperation op;
    op.wordline = 1;
    op.bitlines = {8, 9, 10, 11, 12, 13, 14, 15};
    std::vector<CellState> pattern(p.rows * p.cols, CellState::HRS);
    auto sol = mna.solve(pattern, op);
    EXPECT_EQ(sol.cellDrops.size(), 8u);
    for (double d : sol.cellDrops) {
        EXPECT_GT(d, 0.0);
        EXPECT_GE(d, sol.minDropVolts);
    }
}

/**
 * Dense reference for CrossbarMna::solve: the same damped Picard loop
 * (initial guess at the driver potentials, 0.5 damping, 1e-7 V step
 * tolerance), but every linearized system is stamped into one dense
 * matrix and solved directly. Returns the node voltages in the
 * Solution's order (wordline nodes row-major, then bitline nodes
 * bitline-major); @p converged reports whether the loop settled.
 */
std::vector<double>
denseReference(const CrossbarParams &p, const CellModel &cell,
               std::vector<CellState> states, const WriteOperation &op,
               bool &converged)
{
    const std::size_t n = p.rows;
    const std::size_t m = p.cols;
    const std::size_t total = 2 * n * m;
    auto wl = [m](std::size_t i, std::size_t j) { return i * m + j; };
    auto bl = [n, m](std::size_t i, std::size_t j) {
        return n * m + j * n + i;
    };
    std::vector<bool> selected(m, false);
    for (std::size_t j : op.bitlines) {
        selected[j] = true;
        states[op.wordline * m + j] = CellState::LRS;
    }
    auto wlSource = [&](std::size_t i) {
        return i == op.wordline ? 0.0 : p.biasVolts;
    };
    auto blSource = [&](std::size_t j) {
        return selected[j] ? p.writeVolts : p.biasVolts;
    };

    std::vector<double> volts(total);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < m; ++j) {
            volts[wl(i, j)] = wlSource(i);
            volts[bl(i, j)] = blSource(j);
        }

    const double gWire = 1.0 / p.wireOhms;
    auto stamp = [total](std::vector<double> &a, std::size_t u,
                         std::size_t v, double g) {
        a[u * total + u] += g;
        a[v * total + v] += g;
        a[u * total + v] -= g;
        a[v * total + u] -= g;
    };
    converged = false;
    for (int iter = 0; iter < 60 && !converged; ++iter) {
        std::vector<double> a(total * total, 0.0);
        std::vector<double> x(total, 0.0);
        for (std::size_t i = 0; i < n; ++i) {
            a[wl(i, 0) * total + wl(i, 0)] += 1.0 / p.inputOhms;
            x[wl(i, 0)] += wlSource(i) / p.inputOhms;
            for (std::size_t j = 0; j + 1 < m; ++j)
                stamp(a, wl(i, j), wl(i, j + 1), gWire);
        }
        for (std::size_t j = 0; j < m; ++j) {
            a[bl(0, j) * total + bl(0, j)] += 1.0 / p.outputOhms;
            x[bl(0, j)] += blSource(j) / p.outputOhms;
            for (std::size_t i = 0; i + 1 < n; ++i)
                stamp(a, bl(i, j), bl(i + 1, j), gWire);
        }
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < m; ++j) {
                double g = cell.conductance(states[i * m + j],
                                            volts[bl(i, j)] -
                                                volts[wl(i, j)]);
                if (selected[j] && i != op.wordline)
                    g *= p.blSneakScale;
                else if (i == op.wordline && !selected[j])
                    g *= p.wlSneakScale;
                stamp(a, wl(i, j), bl(i, j), g);
            }
        denseSolveInPlace(a, x, total);

        double maxDelta = 0.0;
        for (std::size_t k = 0; k < total; ++k) {
            double next = 0.5 * volts[k] + 0.5 * x[k];
            maxDelta = std::max(maxDelta, std::abs(next - volts[k]));
            volts[k] = next;
        }
        converged = maxDelta < 1e-7;
    }
    return volts;
}

struct MnaShape
{
    std::size_t rows;
    std::size_t cols;
};

class MnaVsDense : public ::testing::TestWithParam<MnaShape>
{
};

/**
 * The line-relaxation solve must land on the same node voltages as a
 * direct dense solve of the same nonlinear system: random cell
 * patterns, random selected wordline and bitlines, and wire and driver
 * resistances drawn around the defaults.
 */
TEST_P(MnaVsDense, EveryNodeAgrees)
{
    auto [rows, cols] = GetParam();
    Rng rng(0x5eed0000 + rows * 64 + cols);
    for (int trial = 0; trial < 3; ++trial) {
        CrossbarParams p;
        p.rows = rows;
        p.cols = cols;
        p.wireOhms = 2.5 + 2.5 * rng.nextDouble();
        p.inputOhms = 100.0 + 100.0 * rng.nextDouble();
        p.outputOhms = 100.0 + 100.0 * rng.nextDouble();
        CrossbarMna mna(p);

        std::vector<CellState> pattern(rows * cols);
        for (auto &c : pattern)
            c = rng.nextBounded(2) ? CellState::LRS : CellState::HRS;
        WriteOperation op;
        op.wordline = rng.nextBounded(rows);
        for (std::size_t j = 0; j < cols; ++j)
            if (rng.nextBounded(4) == 0)
                op.bitlines.push_back(j);
        if (op.bitlines.empty())
            op.bitlines.push_back(rng.nextBounded(cols));

        CrossbarMna::Solution sol = mna.solve(pattern, op);
        bool refConverged = false;
        std::vector<double> ref =
            denseReference(p, mna.cellModel(), pattern, op, refConverged);
        ASSERT_TRUE(sol.converged) << rows << "x" << cols << " trial "
                                   << trial;
        ASSERT_TRUE(refConverged) << rows << "x" << cols << " trial "
                                  << trial;

        // Node voltages are O(1) volts; 1e-6 V agreement is far below
        // any physical significance in the timing model.
        const std::size_t plane = rows * cols;
        for (std::size_t k = 0; k < plane; ++k) {
            ASSERT_NEAR(sol.wlVolts[k], ref[k], 1e-6)
                << rows << "x" << cols << " trial " << trial
                << " wordline node " << k;
            ASSERT_NEAR(sol.blVolts[k], ref[plane + k], 1e-6)
                << rows << "x" << cols << " trial " << trial
                << " bitline node " << k;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MnaVsDense,
                         ::testing::Values(MnaShape{4, 4},
                                           MnaShape{8, 8},
                                           MnaShape{8, 16},
                                           MnaShape{16, 8},
                                           MnaShape{16, 16}));

} // namespace
} // namespace ladder
