/**
 * @file
 * Split-reset write scheduling (Xu et al., HPCA'15; paper §6.1): one
 * RESET is divided into two half-RESET phases that each write at most
 * 4 bits per mat. Fewer concurrently selected cells draw less sneak
 * current, so each phase is faster than a full 8-bit RESET; lines that
 * FPC-compress to half size need only a single phase.
 */

#ifndef LADDER_SCHEMES_SPLIT_RESET_HH
#define LADDER_SCHEMES_SPLIT_RESET_HH


#include "common/stats.hh"
#include "ctrl/controller.hh"
#include "ctrl/scheme.hh"
#include "reram/timing_tables.hh"

namespace ladder
{

/** Split-reset with FPC-gated single-phase writes. */
class SplitResetScheme : public WriteScheme
{
  public:
    /**
     * @param model The system's timing model; the half-RESET tables
     *        are derived from its parameters, law and granularity.
     */
    explicit SplitResetScheme(const TimingModel &model);

    std::string name() const override { return "Split-reset"; }
    WriteDecision decideWrite(MemoryController &ctrl, WriteEntry &entry,
                              const LineData &finalData) override;
    /**
     * The second half-RESET phase of an incompressible line is pure
     * scheme overhead: location blame covers one phase at the actual
     * (WL, BL), content blame is zero (phases depend on the written
     * data's compressibility, not the array's LRS state).
     */
    WriteBlameHint attributeWrite(
        const MemoryController &ctrl, const WriteEntry &entry,
        const WriteDecision &decision) const override;

    StatScalar compressibleWrites;
    StatScalar incompressibleWrites;

    /** The derived half-RESET model the phases are priced on. */
    const TimingModel &halfModel() const { return halfModel_; }

  private:
    const TimingModel &halfModel_;
};

} // namespace ladder

#endif // LADDER_SCHEMES_SPLIT_RESET_HH
