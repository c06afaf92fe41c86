/**
 * @file
 * Online phase detection and live-sampling control for tick-loop
 * simulations (Pac-Sim-style; see PAPERS.md).
 *
 * The tick loop presents each simulated step as a *signature*: one
 * quantised word per slot (here: per core) fingerprinting the work it
 * is running — application, phase IPC/miss/activity scales. The
 * PhaseSampler watches the signature stream and, once it has stayed
 * near a candidate for a hysteresis window, declares the workload
 * *steady* and freezes the signature as the extrapolation basis. While
 * steady, the simulator may skip full evaluations and extrapolate
 * metrics from the last settled condition:
 *
 *  - per-tick: signature drift within the churn tolerance rides on
 *    the frozen basis; drift beyond it forces a one-tick resample
 *    (the caller re-settles, reports the observed error, refreezes);
 *  - per-epoch (the DVFS/decision period): only every Nth epoch is
 *    evaluated end-to-end (snapshot + power manager + settle). The
 *    sampling period N deepens geometrically while the checkpoint
 *    drift stays within the budget, halves back toward the initial
 *    period when drift crosses it, and only drift far past the
 *    budget drops the basis outright (the phase re-earns steadiness
 *    through hysteresis and warmup).
 *
 * Any structural event — scheduler remap, large DVFS swing, fault,
 * wearout drift — invalidates the basis outright: the sampler drops
 * to Unstable, re-runs hysteresis, and the loop evaluates exactly in
 * the meantime. A budget of 0 (errorBudget <= 0) *is* the exact
 * engine: the sampler never extrapolates, so every tick settles and
 * every epoch is decided, exactly as with sampling off — the
 * reference the SamplingGuard tests (tests/test_phase.cc) check
 * sampled runs against.
 *
 * Header-only and dependency-free: the sampler knows nothing about
 * chips, only signatures, epochs, and error feedback.
 */

#ifndef VARSCHED_RUNTIME_PHASE_HH
#define VARSCHED_RUNTIME_PHASE_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace varsched
{

/** Tuning of the phase-sampled simulation engine. */
struct PhaseSamplingConfig
{
    /** Master switch; off runs the exact engine (every tick settled). */
    bool enabled = false;

    /**
     * Target relative error on run-level power/energy/ED^2. Governs
     * the derived churn tolerance and the checkpoint adaptation; the
     * SamplingGuard tests assert the realised error stays within it.
     * <= 0 never extrapolates (the exact engine).
     */
    double errorBudget = 0.01;

    /**
     * EWMA weight of a fresh epoch-boundary settle in the
     * extrapolation basis (1 = extrapolate the latest settle
     * verbatim). Values below 1 average the controller's sensor-noise
     * limit cycle out of the basis: the run-level metrics compare
     * against an exact run that averages over many noisy decisions,
     * and extrapolating any single draw carries that draw's jitter.
     */
    double basisBlend = 0.25;

    /**
     * Fraction of (active) signature slots allowed to deviate from
     * the frozen basis before a forced resample; < 0 derives
     * min(0.5, 15 * errorBudget) from the budget.
     */
    double maxChurnFraction = -1.0;
};

/**
 * Ticks a candidate signature must persist (within the churn
 * tolerance) before the workload counts as steady. Guards against
 * engaging on fast-churning workloads where sampling cannot win.
 */
inline constexpr int kPhaseHysteresisTicks = 5;

/** Initial epochs-per-evaluation once steady. */
inline constexpr int kPhaseSamplePeriodEpochs = 4;

/** Deepening cap for the adaptive sampling period. */
inline constexpr int kPhaseMaxSamplePeriodEpochs = 64;

/**
 * Evaluated epochs that must elapse after a start or an invalidation
 * before extrapolation may engage. The tick-level hysteresis sees
 * only the workload; this gate makes the sampler survive whole
 * *decision* periods, so it cannot freeze a basis while a
 * power-management control loop is still converging (workload
 * signatures look steady right through that transient).
 */
inline constexpr int kPhaseWarmupEpochs = 2;

/** Quantisation step for signature scale fingerprints. */
inline constexpr double kPhaseQuantStep = 1.0 / 64.0;

/** Resolved churn tolerance (fraction of slots). */
inline double
phaseChurnTolerance(const PhaseSamplingConfig &config)
{
    if (config.maxChurnFraction >= 0.0)
        return config.maxChurnFraction;
    return std::min(0.5, 15.0 * std::max(config.errorBudget, 0.0));
}

/** Why a frozen basis was dropped or resampled. */
enum class PhaseInvalidation
{
    PhaseChange,    ///< Signature drifted past the churn tolerance.
    Remap,          ///< Scheduler moved threads across cores.
    DvfsChange,     ///< Power manager swung many levels at once.
    Fault,          ///< Injected fault event (core death etc.).
    BudgetExceeded, ///< Checkpoint error exceeded the budget.
};

inline constexpr std::size_t kNumPhaseInvalidations = 5;

/**
 * Checkpoint drift beyond this multiple of the error budget drops the
 * basis outright (PhaseInvalidation::BudgetExceeded) instead of just
 * backing the sampling period off. Below it the sampler assumes the
 * drift is the controller's stationary sensor-noise limit cycle —
 * zero-mean, so it costs variance, not bias — and keeps sampling at a
 * shallower period rather than paying warmup again.
 */
inline constexpr double kPhaseHardBudgetFactor = 3.0;

/** Counters the sampler keeps for telemetry. */
struct PhaseSamplerStats
{
    std::uint64_t extrapolatedEpochs = 0;
    std::uint64_t invalidations[kNumPhaseInvalidations] = {};
    /**
     * Sum over checkpoints of (observed relative error x ticks the
     * error covers); divide by total ticks for the run-level est_err.
     */
    double estErrSum = 0.0;

    std::uint64_t
    totalInvalidations() const
    {
        std::uint64_t sum = 0;
        for (std::uint64_t v : invalidations)
            sum += v;
        return sum;
    }
};

/** splitmix64-style mixing for signature words (local copy: this
 *  header stays dependency-free). */
inline std::uint64_t
phaseMix(std::uint64_t h, std::uint64_t v)
{
    std::uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) +
                           (h >> 2));
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Quantise a scale factor onto the signature lattice. */
inline std::uint64_t
phaseQuantise(double value)
{
    return static_cast<std::uint64_t>(
        std::llround(value / kPhaseQuantStep));
}

/**
 * Fraction of occupied slots whose words differ between two
 * signatures (a slot counts as occupied when either side is
 * non-zero, so parking or remapping a thread registers as churn).
 */
inline double
phaseDistance(const std::vector<std::uint64_t> &a,
              const std::vector<std::uint64_t> &b)
{
    const std::size_t n = std::min(a.size(), b.size());
    std::size_t active = 0, differing = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if ((a[i] | b[i]) != 0) {
            ++active;
            if (a[i] != b[i])
                ++differing;
        }
    }
    if (a.size() != b.size())
        return 1.0;
    return active == 0
        ? 0.0
        : static_cast<double>(differing) / static_cast<double>(active);
}

/**
 * The phase-sampling state machine. The caller owns the loop and the
 * physics; the sampler only answers "evaluate or extrapolate?" and
 * tracks why extrapolation stopped. Protocol per tick:
 *
 *   1. observeTick(sig)            — may force a resample;
 *   2. (epoch boundary only) beginEpochEvaluate() — epoch decision;
 *   3. if (!extrapolating()) settle exactly, then
 *        checkpoint(estErr, ctlErr, boundary) when the previous tick
 *        extrapolated, and freezeBasis(sig) to adopt the settled
 *        state as the basis;
 *      else extrapolate from the frozen condition.
 *
 * Structural events call invalidate(cause) at any point. A caller
 * that knows the next ticks repeat this one (same signature, no epoch
 * boundary) may fold their step 1 into observeTicks(sig, n) and their
 * extrapolated-tick counts into one noteExtrapolatedTicks(n).
 */
class PhaseSampler
{
  public:
    PhaseSampler(const PhaseSamplingConfig &config, std::size_t slots)
        : config_(config), churnTol_(phaseChurnTolerance(config)),
          period_(kPhaseSamplePeriodEpochs),
          basis_(slots, 0), candidate_(slots, 0)
    {
    }

    /**
     * Feed this tick's signature. Returns true when a steady basis
     * was knocked out by drift past the churn tolerance — the caller
     * must evaluate this tick exactly (extrapolating() is false until
     * the next freezeBasis()).
     */
    bool
    observeTick(const std::vector<std::uint64_t> &sig)
    {
        if (state_ == State::Steady) {
            if (phaseDistance(sig, basis_) > churnTol_) {
                // Forced resample: the basis is stale but the phase
                // mix is statistically steady, so stay Steady and let
                // the caller refreeze after it settles.
                ++stats_.invalidations[static_cast<std::size_t>(
                    PhaseInvalidation::PhaseChange)];
                extrapolating_ = false;
                return true;
            }
            return false;
        }
        if (candidateValid_ &&
            phaseDistance(sig, candidate_) <= churnTol_) {
            if (++matchTicks_ >= kPhaseHysteresisTicks &&
                state_ == State::Unstable)
                state_ = State::Armed;
        } else {
            candidate_ = sig;
            candidateValid_ = true;
            matchTicks_ = 0;
            state_ = State::Unstable;
        }
        return false;
    }

    /**
     * @p ticks observeTick(sig) calls in a row, at the cost of one:
     * the same state and counters afterwards, and the last call's
     * return value (false when @p ticks is 0).
     */
    bool
    observeTicks(const std::vector<std::uint64_t> &sig, std::size_t ticks)
    {
        if (ticks == 0)
            return false;
        if (state_ == State::Steady) {
            // Every call sees the same distance to the same basis.
            if (phaseDistance(sig, basis_) <= churnTol_)
                return false;
            stats_.invalidations[static_cast<std::size_t>(
                PhaseInvalidation::PhaseChange)] += ticks;
            extrapolating_ = false;
            return true;
        }
        if (!candidateValid_ ||
            phaseDistance(sig, candidate_) > churnTol_) {
            // The first call adopts sig as the candidate; the rest
            // match it.
            observeTick(sig);
            --ticks;
        }
        // Only whether the count has reached the window matters.
        matchTicks_ = static_cast<int>(std::min<std::size_t>(
            static_cast<std::size_t>(matchTicks_) + ticks,
            kPhaseHysteresisTicks));
        if (matchTicks_ >= kPhaseHysteresisTicks &&
            state_ == State::Unstable)
            state_ = State::Armed;
        return false;
    }

    /**
     * Epoch-boundary decision: true when this epoch must be evaluated
     * end-to-end (power manager + settle), false to extrapolate it.
     */
    bool
    beginEpochEvaluate()
    {
        verifying_ = false;
        if (config_.errorBudget <= 0.0 || state_ != State::Steady ||
            warmup_ < kPhaseWarmupEpochs) {
            if (warmup_ < kPhaseWarmupEpochs)
                ++warmup_;
            epochExtrapolate_ = false;
            extrapolating_ = false;
            return true;
        }
        if (verifyNext_ || ++sinceEval_ >= period_) {
            verifying_ = verifyNext_;
            verifyNext_ = false;
            sinceEval_ = 0;
            epochExtrapolate_ = false;
            extrapolating_ = false;
            return true;
        }
        epochExtrapolate_ = true;
        extrapolating_ = true;
        ++stats_.extrapolatedEpochs;
        return false;
    }

    /** True while the caller should skip evaluation this tick. */
    bool extrapolating() const { return extrapolating_; }

    /** True once a frozen basis backs extrapolation decisions. */
    bool steady() const { return state_ == State::Steady; }

    /**
     * Drop the basis outright (structural event): back to Unstable,
     * hysteresis re-runs, the sampling period resets.
     */
    void
    invalidate(PhaseInvalidation cause)
    {
        ++stats_.invalidations[static_cast<std::size_t>(cause)];
        state_ = State::Unstable;
        candidateValid_ = false;
        matchTicks_ = 0;
        extrapolating_ = false;
        epochExtrapolate_ = false;
        period_ = kPhaseSamplePeriodEpochs;
        sinceEval_ = 0;
        warmup_ = 0;
        verifyNext_ = false;
    }

    /**
     * Report the errors observed when an exact evaluation replaced an
     * extrapolated state (forced resample or sampled epoch).
     *
     * @p estErr is the *point* error — fresh settle vs the frozen
     * basis — and is accounted over the ticks extrapolated since the
     * last checkpoint (the honest est_err the run reports). @p ctlErr
     * is the *drift* error — the caller's estimate of how far the
     * running basis wanders per sampling period (typically the blend
     * weight times a learned noise floor): point errors include the
     * controller's per-decision sensor-noise jitter, which the basis
     * averages out, so adapting on them directly would thrash. At
     * epoch boundaries (@p boundary) the period deepens — x4 while the
     * drift stays under half the budget, x2 while it stays within the
     * budget — and halves when it crosses the budget, so
     * noisy-but-stationary phases keep sampling, just shallower. Only
     * drift past kPhaseHardBudgetFactor x budget drops the basis
     * outright (back to Unstable, warmup re-runs): extrapolation that
     * wrong means the phase must re-earn steadiness. A verification
     * epoch (verifyNextEpoch) adapts nothing.
     */
    void
    checkpoint(double estErr, double ctlErr, bool boundary)
    {
        stats_.estErrSum +=
            estErr * static_cast<double>(ticksSinceCheckpoint_);
        ticksSinceCheckpoint_ = 0;
        if (state_ != State::Steady || !boundary || verifying_)
            return;
        if (ctlErr > kPhaseHardBudgetFactor * config_.errorBudget) {
            invalidate(PhaseInvalidation::BudgetExceeded);
        } else if (ctlErr > config_.errorBudget) {
            period_ = std::max(period_ / 2, kPhaseSamplePeriodEpochs);
        } else {
            const int factor =
                ctlErr <= 0.5 * config_.errorBudget ? 4 : 2;
            period_ = std::min(period_ * factor,
                               kPhaseMaxSamplePeriodEpochs);
        }
    }

    /**
     * The evaluated output jumped to a new operating regime (e.g. the
     * power manager overshot, or settled onto a different plateau)
     * but the workload signature — and so the phase — is unchanged:
     * the caller reseeds its extrapolation basis from the fresh
     * settle, and the sampler schedules the *next* epoch for
     * evaluation at the initial period. Extrapolation therefore stays
     * off while consecutive boundaries keep jumping (a converging
     * controller is evaluated exactly, decision by decision, until it
     * lands) and resumes one quiet boundary later. Unlike
     * invalidate() this keeps the Steady state: no hysteresis or
     * warmup is re-run, which is what lets noisy controllers keep
     * sampling instead of thrashing through warmup on every output
     * excursion.
     */
    void
    resample(PhaseInvalidation cause)
    {
        ++stats_.invalidations[static_cast<std::size_t>(cause)];
        period_ = kPhaseSamplePeriodEpochs;
        sinceEval_ = period_ - 1;
    }

    /**
     * Adopt @p sig (and the caller's just-settled condition) as the
     * frozen basis. Armed becomes Steady; if the current epoch was
     * extrapolating before a forced resample, extrapolation resumes.
     */
    void
    freezeBasis(const std::vector<std::uint64_t> &sig)
    {
        basis_ = sig;
        if (state_ == State::Armed) {
            state_ = State::Steady;
            sinceEval_ = 0;
        }
        if (state_ == State::Steady && epochExtrapolate_)
            extrapolating_ = true;
    }

    /** Evaluate the next epoch whatever the period, to check a basis
     *  just reseeded from one decision. */
    void verifyNextEpoch() { verifyNext_ = true; }

    /** Count @p ticks ticks extrapolated from the frozen basis, for
     *  the next checkpoint's est_err weight. */
    void noteExtrapolatedTicks(std::uint64_t ticks)
    { ticksSinceCheckpoint_ += ticks; }

    const PhaseSamplerStats &stats() const { return stats_; }
    int currentPeriod() const { return period_; }

  private:
    enum class State
    {
        Unstable, ///< Collecting hysteresis against a candidate.
        Armed,    ///< Hysteresis met; waiting for an exact settle.
        Steady,   ///< Basis frozen; extrapolation allowed.
    };

    PhaseSamplingConfig config_;
    double churnTol_;
    int period_;
    int sinceEval_ = 0;
    bool verifyNext_ = false;
    bool verifying_ = false;
    int matchTicks_ = 0;
    int warmup_ = 0;
    State state_ = State::Unstable;
    bool candidateValid_ = false;
    bool extrapolating_ = false;
    bool epochExtrapolate_ = false;
    std::uint64_t ticksSinceCheckpoint_ = 0;
    std::vector<std::uint64_t> basis_;
    std::vector<std::uint64_t> candidate_;
    PhaseSamplerStats stats_;
};

} // namespace varsched

#endif // VARSCHED_RUNTIME_PHASE_HH
