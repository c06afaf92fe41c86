/**
 * @file
 * GuardedPowerManager: degradation-aware decorator around any
 * PowerManager.
 *
 * The wrapped ("primary") manager — LinOpt, SAnn, Foxton*, the
 * max-min LP — trusts its sensor snapshot and its actuators. The
 * guard does not. It
 *
 *  1. passes every snapshot through a SensorValidator, so the primary
 *     only ever sees plausible (possibly substituted) power curves;
 *  2. cross-checks each new raw snapshot against the *physically
 *     settled* per-core power of the previous tick (the trustworthy
 *     regulator-side measurement) at the level the guard last
 *     commanded — the two describe the same operating point at the
 *     same temperature, so a healthy sensor agrees to within noise
 *     while a plausible-but-wrong one is caught and quarantined;
 *  3. learns the bias between what a decision predicted and what
 *     physically settled, and shaves the budget it hands the
 *     managers by that bias, closing the loop that open-loop sensor
 *     models (leakage frozen at the pre-decision temperature) leave
 *     open;
 *  4. sanity-checks each decision against the validated power model
 *     and overrides it with a Foxton*-style reduction when the
 *     predicted power busts the budget (e.g. an infeasible LP); and
 *  5. on repeated settled-power violations — or while any sensor is
 *     quarantined — degrades along a fallback chain: primary ->
 *     Foxton* on validated sensors -> uniform lowest-level safe
 *     mode — and climbs back up with hysteresis once the chip has
 *     been clean for a while and (for the final step back to the
 *     primary) every sensor is trusted again.
 */

#ifndef VARSCHED_CORE_GUARDED_HH
#define VARSCHED_CORE_GUARDED_HH

#include <memory>
#include <string>
#include <vector>

#include "core/pmalgo.hh"
#include "fault/validate.hh"

namespace varsched
{

/** Fallback position: 0 = primary, 1 = Foxton*, 2 = safe mode. */
enum class GuardTier
{
    Primary = 0,
    Fallback = 1,
    SafeMode = 2,
};

/** Guard telemetry. */
struct GuardStats
{
    /** Tier-degrade events (fallback-chain engagements). */
    std::size_t fallbackEngagements = 0;
    /** Times the guard made it back to the primary manager. */
    std::size_t recoveries = 0;
    /** Primary decisions overridden for predicted infeasibility. */
    std::size_t decisionOverrides = 0;
    /** Settled-power violations observed (one per violated tick). */
    std::size_t violations = 0;
    /** Time spent below the primary tier, ms. */
    double degradedTimeMs = 0.0;
    /** Summed degrade-to-primary latency over the recoveries, ms. */
    double recoveryMs = 0.0;

    bool operator==(const GuardStats &) const = default;
};

/** Decorator enforcing the power budget under faulty inputs. */
class GuardedPowerManager : public PowerManager
{
  public:
    explicit GuardedPowerManager(std::unique_ptr<PowerManager> primary);

    /** Settled power above (1 + this) * Ptarget counts as violated. */
    static constexpr double kViolationTolerance = 0.05;
    /** Per-core settled power above (1 + this) * Pcoremax, too. */
    static constexpr double kCoreViolationTolerance = 0.25;
    /** Consecutive violated ticks before degrading one tier. */
    static constexpr int kDegradeAfter = 3;
    /** Consecutive clean ticks before recovering one tier. */
    static constexpr int kRecoverAfter = 30;
    /** Settled-vs-sensed disagreement that flags a sensor. */
    static constexpr double kMistrustFraction = 0.30;
    /**
     * Smoothing gain of the settle-bias estimate (0..1; higher reacts
     * faster). The bias — how far above its own prediction the chip
     * physically settles — is subtracted from the budget handed to
     * the managers.
     */
    static constexpr double kBiasGain = 0.5;
    /** Never shave the effective budget below this fraction of it. */
    static constexpr double kMinTargetFraction = 0.5;

    std::string name() const override;
    const std::vector<int> &selectLevels(const ChipSnapshot &snap) override;
    void beginEpoch(std::uint64_t epochIndex) override
    { primary_->beginEpoch(epochIndex); }
    // The degraded tiers run the Foxton* fallback (always cheap), so
    // the primary decides whether skipping decisions buys anything.
    bool cheapDecision() const override
    { return primary_->cheapDecision(); }

    /**
     * Feedback path: report the physically settled chip state (the
     * regulator-side measurement, assumed trustworthy) of @p ticks
     * identical ticks, ticks @p firstTick onwards of a run stepping
     * @p tickMs. Leaves exactly what that many one-tick calls leave:
     * the violation and clean streaks advance tick by tick, so a
     * degrade or recovery can land partway through, and the tier is
     * timed at tick n's start, n * tickMs. The defaults score one
     * tick, at time 0.
     *
     * @param cond Settled condition of the ticks.
     * @param ptargetW Chip budget in force.
     * @param pcoreMaxW Per-core cap in force.
     */
    void observeSettled(const ChipCondition &cond, double ptargetW,
                        double pcoreMaxW, std::size_t firstTick = 0,
                        std::size_t ticks = 1, double tickMs = 1.0);

    GuardTier tier() const { return tier_; }
    const GuardStats &stats() const { return stats_; }
    const SensorValidator &validator() const { return validator_; }
    /** Quarantine entries, for SystemResult telemetry. */
    std::size_t sensorQuarantines() const
    { return validator_.quarantineEvents(); }
    /** Learned settled-minus-predicted power bias, W (>= 0). */
    double settleBiasW() const { return biasW_; }

  private:
    std::unique_ptr<PowerManager> primary_;
    FoxtonStarManager fallback_;
    SensorValidator validator_;
    /** The validated copy of the last snapshot, reused between calls. */
    ChipSnapshot validated_;
    GuardStats stats_;

    GuardTier tier_ = GuardTier::Primary;
    int violationStreak_ = 0;
    int cleanStreak_ = 0;
    /** A tier change not yet reflected in an applied decision. */
    bool awaitingDecision_ = false;

    /** (coreId, level) pairs of the last decision, for the settled
     *  cross-check at the next snapshot. */
    std::vector<std::pair<std::size_t, int>> lastDecision_;
    /** Per-core power of the last settle reported back, W. */
    std::vector<double> settledPowerW_;
    /** Below the primary at the last observed tick, since when. */
    bool observedDegraded_ = false;
    double degradeStartMs_ = 0.0;
    /** Chip power the last decision predicted; < 0 when none. */
    double lastPredictedW_ = -1.0;
    /** The prediction above has been scored against a settle. */
    bool settleScored_ = true;
    /** Settled-minus-predicted bias estimate, W. */
    double biasW_ = 0.0;
};

} // namespace varsched

#endif // VARSCHED_CORE_GUARDED_HH
