/**
 * @file
 * Content-aware workload families beyond the paper's SPEC/PARSEC
 * stand-ins. Each family is a deterministic TraceSource whose *data
 * content* — not just its address stream — is the point:
 *
 *  - dnn-update: DNN weight-update streams per the ARAS / ReRAM-DNN
 *    deployment characterizations — layer-sweep sequential writes of
 *    sparse deltas, zero-heavy with magnitude-skewed FP values, so
 *    per-wordline LRS counts sit far below the paper workloads'.
 *  - kv-log: key-value / log-structured store traffic — Zipf-hot key
 *    updates over a table region plus a sequentially appended log,
 *    values zero-padded to slot boundaries (short text/int payloads
 *    in fixed 64B slots).
 *  - adv-lrs: adversarial worst case — every request is a store of
 *    0xFF bytes sweeping the whole footprint, so each line converges
 *    to all-LRS and every write RESETs at the content maximum. With
 *    RESET latency monotone in the wordline LRS count (property-
 *    tested against the timing tables), no workload can demand a
 *    slower per-write latency: the family provably bounds tail
 *    behaviour.
 *
 * Families are registered in the workload frontend (see
 * workload_frontend.hh) and selectable in sweep specs by name.
 */

#ifndef LADDER_TRACE_WORKLOAD_FAMILIES_HH
#define LADDER_TRACE_WORKLOAD_FAMILIES_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/synth.hh"

namespace ladder
{

/** Family display names, in registration order. */
std::vector<std::string> familyWorkloadNames();

/** Whether @p name denotes one of the generator families. */
bool isFamilyWorkload(const std::string &name);

/**
 * First-touch resident content for a family (what its region holds
 * before the measured window starts).
 */
PatternMix familyFirstTouchMix(const std::string &name);

/**
 * Build a family source. @p scale scales the footprint like the
 * synthetic workloads' working sets; fatal on unknown names.
 */
std::unique_ptr<TraceSource>
makeFamilySource(const std::string &name, std::uint64_t seed,
                 double scale);

/** DNN weight-update stream (see @file). */
class DnnWeightUpdateSource : public TraceSource
{
  public:
    DnnWeightUpdateSource(std::uint64_t seed, double scale);

    TraceRecord next() override;
    std::uint64_t footprintBytes() const override;

    /** Fraction of written words that are exactly zero (declared
     *  invariant, property-tested). */
    static constexpr double zeroWordFraction = 0.85;

  private:
    Rng rng_;
    std::uint64_t pages_;
    std::uint64_t cursorLine_ = 0; //!< layer-sweep position
    unsigned dwell_ = 0;           //!< stores left on this line
};

/** Key-value / log-structured store stream (see @file). */
class KvLogSource : public TraceSource
{
  public:
    KvLogSource(std::uint64_t seed, double scale);

    TraceRecord next() override;
    std::uint64_t footprintBytes() const override;

    /** Declared zero-padding floor on written words. */
    static constexpr double zeroWordFraction = 0.45;

  private:
    Rng rng_;
    std::uint64_t tablePages_;
    std::uint64_t logPages_;
    std::uint64_t logCursorLine_ = 0;
};

/** Adversarial all-LRS store stream (see @file). */
class AdversarialLrsSource : public TraceSource
{
  public:
    AdversarialLrsSource(std::uint64_t seed, double scale);

    TraceRecord next() override;
    std::uint64_t footprintBytes() const override;

  private:
    std::uint64_t pages_;
    std::uint64_t cursorLine_ = 0;
    unsigned wordInLine_ = 0;
};

} // namespace ladder

#endif // LADDER_TRACE_WORKLOAD_FAMILIES_HH
