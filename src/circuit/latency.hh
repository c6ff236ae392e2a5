/**
 * @file
 * The RESET latency law t = C * exp(-k * |Vd|) (Yu & Wong, IEEE EDL'10;
 * paper §2.1) and its calibration against the circuit model so that the
 * full operating envelope spans the paper's tWR range of 29-658 ns
 * (Table 2).
 */

#ifndef LADDER_CIRCUIT_LATENCY_HH
#define LADDER_CIRCUIT_LATENCY_HH

namespace ladder
{

/**
 * Exponential RESET-time law. The output is clamped to the calibrated
 * [fastNs, slowNs] envelope so that numerical noise in the circuit
 * solve can never produce an unsafe (too small) or absurd latency.
 */
struct ResetLatencyLaw
{
    double cNs = 0.0;      //!< prefactor C (ns)
    double kPerVolt = 0.0; //!< exponent slope k (1/V)
    double fastNs = 29.0;  //!< clamp floor
    double slowNs = 658.0; //!< clamp ceiling

    /** Latency (ns) for a given voltage drop across the cell. */
    double latencyNs(double dropVolts) const;

    /**
     * Fit C and k such that the best-case drop maps to @p fast and the
     * worst-case drop maps to @p slow.
     *
     * @pre bestDrop > worstDrop (more voltage means faster RESET).
     */
    static ResetLatencyLaw calibrate(double bestDropVolts,
                                     double worstDropVolts,
                                     double fast = 29.0,
                                     double slow = 658.0);

    /**
     * A law with the dynamic range shrunk by @p factor around the fast
     * end: slow' = fast + (slow - fast) / factor, k scaled to match.
     * Used by the §7 process-variability ablation.
     */
    ResetLatencyLaw shrinkDynamicRange(double factor) const;

    bool operator==(const ResetLatencyLaw &) const = default;
};

} // namespace ladder

#endif // LADDER_CIRCUIT_LATENCY_HH
