#include "cell_model.hh"

#include <cmath>
#include <initializer_list>

#include "common/log.hh"

namespace ladder
{

CellModel::CellModel(const CrossbarParams &params) : params_(params)
{
    ladder_assert(params.selectorNonlinearity >= 2.0,
                  "selector nonlinearity must be at least 2");
    ladder_assert(params.writeVolts > 0.0, "write voltage must be > 0");

    // Solve sinh(B*Vw) / sinh(B*Vw/2) = kappa by bisection. The ratio is
    // monotonically increasing in B from 2 (B -> 0) to infinity.
    const double vw = params.writeVolts;
    const double kappa = params.selectorNonlinearity;
    auto ratio = [vw](double b) {
        return std::sinh(b * vw) / std::sinh(b * vw / 2.0);
    };
    double lo = 1e-9;
    double hi = 1.0;
    while (ratio(hi) < kappa)
        hi *= 2.0;
    for (int iter = 0; iter < 200; ++iter) {
        double mid = 0.5 * (lo + hi);
        if (ratio(mid) < kappa)
            lo = mid;
        else
            hi = mid;
    }
    b_ = 0.5 * (lo + hi);
    sinhBVw_ = std::sinh(b_ * vw);
    for (CellState state : {CellState::HRS, CellState::LRS})
        isat_[static_cast<unsigned>(state)] =
            vw * nominalConductance(state) / sinhBVw_;
}

double
CellModel::nominalConductance(CellState state) const
{
    return state == CellState::LRS ? 1.0 / params_.lrsOhms
                                   : 1.0 / params_.hrsOhms;
}

double
CellModel::current(CellState state, double volts) const
{
    const double mag = std::abs(volts);
    double i = isat(state) * std::sinh(b_ * mag);
    return volts >= 0.0 ? i : -i;
}

CellCurrent
CellModel::currentAndSlope(CellState state, double volts) const
{
    const double e = std::exp(b_ * std::abs(volts));
    const double inv = 1.0 / e;
    const double i = isat(state) * 0.5 * (e - inv);
    return {volts >= 0.0 ? i : -i, isat(state) * b_ * 0.5 * (e + inv)};
}

double
CellModel::conductance(CellState state, double volts) const
{
    const double mag = std::abs(volts);
    // As V -> 0 the sinh law has a finite slope Isat * B; use it to keep
    // the Picard iteration well conditioned for unselected cells.
    if (mag < 1e-6)
        return isat(state) * b_;
    return isat(state) * std::sinh(b_ * mag) / mag;
}

} // namespace ladder
