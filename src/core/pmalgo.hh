/**
 * @file
 * Power-management algorithm interface and the Foxton* baseline.
 *
 * A PowerManager receives the sensor/profile snapshot (what the chip
 * is allowed to know; see chip/sensors.hh) and returns one voltage
 * level per active core. Foxton* is the paper's baseline: a small
 * extension of the Itanium II Foxton controller that, instead of
 * moving both cores together, walks the active cores round-robin,
 * reducing one (V, f) step at a time until the chip-wide Ptarget and
 * the per-core Pcoremax are both met.
 */

#ifndef VARSCHED_CORE_PMALGO_HH
#define VARSCHED_CORE_PMALGO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "chip/sensors.hh"

namespace varsched
{

/**
 * What the optimising power managers maximise. Fig 11 uses raw
 * throughput; Fig 13 re-runs the same experiment "with weighted
 * throughput as the optimization goal".
 */
enum class PmObjective
{
    Throughput, ///< Sum of MIPS.
    Weighted,   ///< Sum of MIPS / per-thread reference MIPS.
};

/** Strategy interface for per-core DVFS selection. */
class PowerManager
{
  public:
    virtual ~PowerManager() = default;

    /** Algorithm name for reports. */
    virtual std::string name() const = 0;

    /**
     * Choose a voltage level for every active core.
     *
     * @param snap Sensor/profile view of the chip.
     * @return One level per snap.cores entry, in a buffer the manager
     *         owns and overwrites on its next selectLevels call, so a
     *         steady run of decisions allocates nothing. Copy it to
     *         keep it past that call.
     */
    virtual const std::vector<int> &
    selectLevels(const ChipSnapshot &snap) = 0;

    /**
     * Announce the DVFS epoch the next selectLevels call decides for.
     * Stochastic managers derive their randomness from it so that a
     * decision is a pure function of (config, epoch, snapshot) — the
     * phase-sampled engine relies on this to evaluate an arbitrary
     * subset of epochs and still agree with the exact run on the
     * epochs it does evaluate. Deterministic managers ignore it.
     */
    virtual void beginEpoch(std::uint64_t epochIndex) { (void)epochIndex; }

    /**
     * True when one selectLevels call costs about as much as taking
     * the snapshot itself (greedy walks, table lookups). The
     * phase-sampled engine keeps running such managers on every
     * epoch instead of skipping decisions: skipping buys no wall
     * time — the post-decision settle is a condition-cache hit in a
     * steady phase — but it does freeze the noise-driven dither by
     * which a quantised controller explores adjacent fixpoints, and
     * on sparse chips (where one level step is a large power
     * quantum) that locks in a systematic trajectory bias instead of
     * zero-mean noise. Expensive optimisers return false and are
     * sampled; that is where the wall time is.
     */
    virtual bool cheapDecision() const { return false; }

  protected:
    /** The decision selectLevels returns a reference to. */
    std::vector<int> levels_;
};

/** No power management: every core at the top level (NUniFreq). */
class MaxLevelManager : public PowerManager
{
  public:
    std::string name() const override { return "MaxLevel"; }
    const std::vector<int> &selectLevels(const ChipSnapshot &snap) override;
    bool cheapDecision() const override { return true; }
};

/**
 * Foxton*: round-robin single-step reduction from the top levels
 * until the power constraints are satisfied (Table 1, bottom).
 */
class FoxtonStarManager : public PowerManager
{
  public:
    std::string name() const override { return "Foxton*"; }
    const std::vector<int> &selectLevels(const ChipSnapshot &snap) override;
    bool cheapDecision() const override { return true; }
};

} // namespace varsched

#endif // VARSCHED_CORE_PMALGO_HH
