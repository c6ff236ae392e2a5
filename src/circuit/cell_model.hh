/**
 * @file
 * ReRAM cell + selector electrical model and the crossbar parameters of
 * the paper's Table 1.
 *
 * The composite 1S1R cell is modelled with the standard sinh-type
 * selector I-V law: I(V) = Isat * sinh(B * V), scaled so that at the
 * full write voltage the composite presents its nominal state
 * resistance, and so that the selector nonlinearity
 * kappa = I(Vw) / I(Vw/2) matches the configured value (200 in the
 * paper). This is the same phenomenological model used by the crossbar
 * design-space literature the paper builds on (Xu et al. HPCA'15,
 * Niu et al. ISLPED'12).
 */

#ifndef LADDER_CIRCUIT_CELL_MODEL_HH
#define LADDER_CIRCUIT_CELL_MODEL_HH

#include <cstddef>

namespace ladder
{

/** Crossbar electrical parameters (paper Table 1). */
struct CrossbarParams
{
    std::size_t rows = 512;        //!< wordlines per mat
    std::size_t cols = 512;        //!< bitlines per mat
    std::size_t selectedCells = 8; //!< bits RESET per mat per write
    double lrsOhms = 10e3;         //!< LRS resistance
    double hrsOhms = 2e6;          //!< HRS resistance
    double selectorNonlinearity = 200.0;
    double inputOhms = 100.0;      //!< wordline driver resistance
    double outputOhms = 100.0;     //!< bitline driver resistance
    double wireOhms = 2.5;         //!< per-segment wire resistance
    double writeVolts = 3.0;       //!< RESET voltage V
    double biasVolts = 1.5;        //!< half-select bias V/2

    /**
     * Calibration of the phenomenological selector model against the
     * paper's published latency surfaces (Figs. 4b/11). The paper's
     * circuit simulations show RESET latency dominated by the
     * *wordline* data pattern; a static sinh selector model under-
     * weights that dependence because the half-selected sneak is
     * self-limited at the operating point. wlSneakScale boosts the
     * effective sneak conductance of half-selected LRS cells along the
     * selected wordline (capturing transient/pre-switch currents);
     * blSneakScale correspondingly scales the selected-bitline sneak.
     * Both are applied identically in the fast sneak-path model and
     * the full MNA so cross-validation stays meaningful; set both to
     * 1.0 for the uncalibrated symmetric model.
     */
    double wlSneakScale = 3.0;
    double blSneakScale = 1.0;

    bool operator==(const CrossbarParams &) const = default;
};

/** Resistive state of one cell. */
enum class CellState : unsigned char
{
    HRS = 0, //!< high-resistance state, logical '0'
    LRS = 1, //!< low-resistance state, logical '1'
};

/** A cell's current and its tangent dI/dV at one voltage. */
struct CellCurrent
{
    double amps = 0.0;  //!< I(V)
    double slope = 0.0; //!< dI/dV (S)
};

/**
 * Voltage-dependent composite conductance of a 1S1R cell.
 *
 * The law is I(V) = (Vw / Rstate) * sinh(B V) / sinh(B Vw), giving
 * effective conductance g(V) = I(V) / V. B is solved numerically from
 * the nonlinearity constraint sinh(B Vw) / sinh(B Vw / 2) = kappa.
 */
class CellModel
{
  public:
    explicit CellModel(const CrossbarParams &params);

    /** Conductance (S) of a cell in @p state with @p volts across it. */
    double conductance(CellState state, double volts) const;

    /** Current (A) through a cell in @p state at @p volts. */
    double current(CellState state, double volts) const;

    /**
     * Current and tangent conductance, Isat*sinh(BV) and
     * Isat*B*cosh(BV), from one exp: what a Newton iteration
     * linearizes the cell on.
     */
    CellCurrent currentAndSlope(CellState state, double volts) const;

    /** The fitted sinh steepness B (1/V). */
    double steepness() const { return b_; }

    /**
     * Linear (selector-free) conductance of a state; the value the
     * composite approaches at the full write voltage.
     */
    double nominalConductance(CellState state) const;

    const CrossbarParams &params() const { return params_; }

  private:
    CrossbarParams params_;
    double b_ = 0.0;       //!< sinh steepness
    double sinhBVw_ = 0.0; //!< cached sinh(B * Vw)
    double isat_[2] = {};  //!< per-state Isat, indexed by CellState

    double isat(CellState state) const
    {
        return isat_[static_cast<unsigned>(state)];
    }
};

} // namespace ladder

#endif // LADDER_CIRCUIT_CELL_MODEL_HH
