/** @file Tests for the 1S1R cell + selector model. */

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/cell_model.hh"

namespace ladder
{
namespace
{

TEST(CellModel, NominalCurrentAtWriteVoltage)
{
    CrossbarParams p;
    CellModel cell(p);
    // At the full write voltage the composite must present its state
    // resistance: I(Vw) = Vw / R.
    EXPECT_NEAR(cell.current(CellState::LRS, p.writeVolts),
                p.writeVolts / p.lrsOhms, 1e-9);
    EXPECT_NEAR(cell.current(CellState::HRS, p.writeVolts),
                p.writeVolts / p.hrsOhms, 1e-12);
}

TEST(CellModel, NonlinearityMatchesKappa)
{
    CrossbarParams p;
    CellModel cell(p);
    double full = cell.current(CellState::LRS, p.writeVolts);
    double half = cell.current(CellState::LRS, p.writeVolts / 2.0);
    EXPECT_NEAR(full / half, p.selectorNonlinearity,
                p.selectorNonlinearity * 1e-6);
}

TEST(CellModel, CurrentMonotoneInVoltage)
{
    CrossbarParams p;
    CellModel cell(p);
    double prev = 0.0;
    for (double v = 0.1; v <= 3.0; v += 0.1) {
        double i = cell.current(CellState::LRS, v);
        EXPECT_GT(i, prev) << "at " << v;
        prev = i;
    }
}

TEST(CellModel, OddSymmetry)
{
    CrossbarParams p;
    CellModel cell(p);
    EXPECT_NEAR(cell.current(CellState::LRS, -1.5),
                -cell.current(CellState::LRS, 1.5), 1e-12);
}

TEST(CellModel, ConductanceFiniteAtZero)
{
    CrossbarParams p;
    CellModel cell(p);
    double g0 = cell.conductance(CellState::LRS, 0.0);
    EXPECT_GT(g0, 0.0);
    EXPECT_LT(g0, 1.0 / p.lrsOhms); // far below nominal
    // Continuity near zero.
    EXPECT_NEAR(cell.conductance(CellState::LRS, 1e-7), g0, g0 * 0.01);
}

TEST(CellModel, LrsConductsMoreThanHrs)
{
    CrossbarParams p;
    CellModel cell(p);
    for (double v : {0.5, 1.5, 3.0}) {
        EXPECT_GT(cell.conductance(CellState::LRS, v),
                  cell.conductance(CellState::HRS, v));
    }
    EXPECT_NEAR(cell.nominalConductance(CellState::LRS) /
                    cell.nominalConductance(CellState::HRS),
                p.hrsOhms / p.lrsOhms, 1e-9);
}

TEST(CellModel, HigherKappaMeansSteeper)
{
    CrossbarParams weak;
    weak.selectorNonlinearity = 10.0;
    CrossbarParams strong;
    strong.selectorNonlinearity = 1000.0;
    CellModel a(weak), b(strong);
    EXPECT_GT(b.steepness(), a.steepness());
    // Stronger selector suppresses half-select current more.
    EXPECT_LT(b.current(CellState::LRS, 1.5),
              a.current(CellState::LRS, 1.5));
}

class ConductanceConsistency
    : public ::testing::TestWithParam<double>
{
};

TEST_P(ConductanceConsistency, GEqualsIOverV)
{
    CrossbarParams p;
    CellModel cell(p);
    double v = GetParam();
    EXPECT_NEAR(cell.conductance(CellState::LRS, v) * v,
                cell.current(CellState::LRS, v), 1e-12);
}

TEST_P(ConductanceConsistency, CurrentAndSlopeMatchTheLaw)
{
    // The Newton fast model's tangent: the current equals current(),
    // and the slope a central difference of it, in both states and
    // both polarities.
    CrossbarParams p;
    CellModel cell(p);
    const double h = 1e-5;
    for (CellState state : {CellState::LRS, CellState::HRS}) {
        for (double v : {GetParam(), -GetParam()}) {
            const CellCurrent c = cell.currentAndSlope(state, v);
            const double i = cell.current(state, v);
            EXPECT_NEAR(c.amps, i, 1e-12 * std::abs(i) + 1e-20)
                << "at " << v;
            const double fd = (cell.current(state, v + h) -
                               cell.current(state, v - h)) /
                              (2.0 * h);
            EXPECT_GT(c.slope, 0.0) << "at " << v;
            EXPECT_NEAR(c.slope, fd, 1e-6 * fd) << "at " << v;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Voltages, ConductanceConsistency,
                         ::testing::Values(0.2, 0.7, 1.5, 2.1, 3.0));

} // namespace
} // namespace ladder
