/**
 * @file
 * Cross-validation of the fast sneak-path model against the full MNA
 * solver, plus the fast model's own invariants.
 */

#include <gtest/gtest.h>
#include <cmath>

#include <tuple>

#include "circuit/fastmodel.hh"
#include "circuit/mna.hh"

namespace ladder
{
namespace
{

CrossbarParams
smallParams(std::size_t n = 64)
{
    CrossbarParams p;
    p.rows = n;
    p.cols = n;
    return p;
}

using Condition = std::tuple<unsigned, unsigned, unsigned, unsigned>;

class FastVsMna : public ::testing::TestWithParam<Condition>
{
};

TEST_P(FastVsMna, DropAgreesWithinTolerance)
{
    auto [wl, slot, cw, cb] = GetParam();
    CrossbarParams p = smallParams();
    SneakPathModel fast(p);
    CrossbarMna full(p);
    ResetCondition cond{wl, slot, cw, cb};
    ResetEvaluation f = fast.evaluate(cond);
    ResetEvaluation m = full.evaluate(cond);
    ASSERT_TRUE(f.converged);
    ASSERT_TRUE(m.converged);
    // The voltage drop (the latency-determining quantity) must agree
    // to a few millivolts.
    EXPECT_NEAR(f.minDropVolts, m.minDropVolts, 5e-3);
    // Power is an approximation; same order of magnitude.
    EXPECT_GT(f.sourcePowerWatts, 0.3 * m.sourcePowerWatts);
    EXPECT_LT(f.sourcePowerWatts, 3.0 * m.sourcePowerWatts);
}

INSTANTIATE_TEST_SUITE_P(
    Conditions, FastVsMna,
    ::testing::Values(Condition{0, 0, 0, 0},
                      Condition{63, 7, 56, 63},
                      Condition{32, 3, 20, 10},
                      Condition{63, 0, 0, 0},
                      Condition{0, 7, 56, 0},
                      Condition{10, 2, 40, 60},
                      Condition{63, 7, 0, 0},
                      Condition{31, 5, 56, 32}));

TEST(FastModel, MonotoneInWordlineLocation)
{
    CrossbarParams p; // full 512x512
    SneakPathModel fast(p);
    double prev = 10.0;
    for (unsigned wl : {0u, 127u, 255u, 383u, 511u}) {
        double drop =
            fast.evaluate({wl, 63, 256, 256}).minDropVolts;
        EXPECT_LT(drop, prev) << "wl " << wl;
        prev = drop;
    }
}

TEST(FastModel, MonotoneInByteOffset)
{
    CrossbarParams p;
    SneakPathModel fast(p);
    double prev = 10.0;
    for (unsigned slot : {0u, 15u, 31u, 47u, 63u}) {
        double drop =
            fast.evaluate({255, slot, 256, 256}).minDropVolts;
        EXPECT_LT(drop, prev) << "slot " << slot;
        prev = drop;
    }
}

TEST(FastModel, MonotoneInWordlineContent)
{
    CrossbarParams p;
    SneakPathModel fast(p);
    double prev = 10.0;
    for (unsigned c : {0u, 128u, 256u, 384u, 512u}) {
        double drop = fast.evaluate({255, 31, c, 512}).minDropVolts;
        EXPECT_LT(drop, prev) << "count " << c;
        prev = drop;
    }
}

TEST(FastModel, MonotoneInBitlineContent)
{
    CrossbarParams p;
    SneakPathModel fast(p);
    double prev = 10.0;
    for (unsigned c : {0u, 128u, 256u, 384u, 512u}) {
        double drop = fast.evaluate({255, 31, 512, c}).minDropVolts;
        EXPECT_LT(drop, prev) << "count " << c;
        prev = drop;
    }
}

TEST(FastModel, WordlineContentDominatesBitline)
{
    // The calibrated model reproduces the paper's wordline-dominant
    // content sensitivity (Figs. 4b/11).
    CrossbarParams p;
    SneakPathModel fast(p);
    double base = fast.evaluate({511, 63, 0, 0}).minDropVolts;
    double wlSwing =
        base - fast.evaluate({511, 63, 512, 0}).minDropVolts;
    double blSwing =
        base - fast.evaluate({511, 63, 0, 512}).minDropVolts;
    EXPECT_GT(wlSwing, blSwing);
}

TEST(FastModel, FullSizeConverges)
{
    CrossbarParams p;
    SneakPathModel fast(p);
    ResetEvaluation eval = fast.evaluate({511, 63, 512, 512});
    EXPECT_TRUE(eval.converged);
    EXPECT_GT(eval.minDropVolts, 1.0);
    EXPECT_LT(eval.minDropVolts, p.writeVolts);
}

TEST(FastModel, WireResistanceSweepConverges)
{
    // Over the whole wire range up to 10 ohm per segment, the worst
    // corner of a full-size mat converges in a few Newton steps to a
    // finite drop that falls as the wires get more resistive.
    double prev = 10.0;
    for (double ohms = 2.5; ohms <= 10.0; ohms += 0.5) {
        CrossbarParams p;
        p.wireOhms = ohms;
        ResetEvaluation eval =
            SneakPathModel(p).evaluate({511, 63, 512, 512});
        EXPECT_TRUE(eval.converged) << ohms << " ohm";
        EXPECT_LE(eval.iterations, 8u) << ohms << " ohm";
        EXPECT_TRUE(std::isfinite(eval.minDropVolts)) << ohms << " ohm";
        EXPECT_LT(eval.minDropVolts, prev) << ohms << " ohm";
        EXPECT_GT(eval.minDropVolts, 1.0) << ohms << " ohm";
        prev = eval.minDropVolts;
    }
}

TEST(FastModel, NonFiniteIterateIsNotConverged)
{
    // Zero-ohm wires (rejected by the registry, but a direct caller
    // can pass them) make every line solve non-finite; that is a
    // failure to converge, not a converged drop; the drops it leaves
    // are NaN, so calibration's finiteness check rejects them.
    CrossbarParams p;
    p.wireOhms = 0.0;
    SneakPathModel fast(p);
    ResetEvaluation eval = fast.evaluate({511, 63, 512, 512});
    EXPECT_FALSE(eval.converged);
    EXPECT_TRUE(std::isnan(eval.minDropVolts));
}

TEST(FastModel, UncalibratedScalesMatchMnaToo)
{
    CrossbarParams p = smallParams();
    p.wlSneakScale = 1.0;
    p.blSneakScale = 1.0;
    SneakPathModel fast(p);
    CrossbarMna full(p);
    ResetCondition cond{40, 6, 30, 30};
    EXPECT_NEAR(fast.evaluate(cond).minDropVolts,
                full.evaluate(cond).minDropVolts, 5e-3);
}

} // namespace
} // namespace ladder
