#include "core/guarded.hh"

#include <algorithm>
#include <cmath>

namespace varsched
{

GuardedPowerManager::GuardedPowerManager(
    std::unique_ptr<PowerManager> primary)
    : primary_(std::move(primary))
{
}

std::string
GuardedPowerManager::name() const
{
    return "Guarded(" + primary_->name() + ")";
}

const std::vector<int> &
GuardedPowerManager::selectLevels(const ChipSnapshot &snap)
{
    const std::size_t n = snap.cores.size();
    if (n == 0) {
        lastDecision_.clear();
        lastPredictedW_ = -1.0;
        awaitingDecision_ = false;
        levels_.clear();
        return levels_;
    }

    // Cross-check the raw readings against the previous tick's
    // settled per-core power at the level the guard last commanded.
    // The snapshot is synthesised at exactly that settled operating
    // point, so a healthy sensor agrees to within noise and phase
    // drift; a plausible-but-wrong one (stuck at yesterday's curve)
    // is caught here even though its shape passes every check.
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t coreId = snap.cores[i].coreId;
        int commanded = -1;
        for (const auto &[id, level] : lastDecision_) {
            if (id == coreId) {
                commanded = level;
                break;
            }
        }
        if (commanded < 0 || coreId >= settledPowerW_.size())
            continue;
        const double actual = settledPowerW_[coreId];
        const auto level = static_cast<std::size_t>(commanded);
        if (actual <= 0.0 || level >= snap.numLevels())
            continue;
        if (std::abs(snap.powerRow(i)[level] - actual) >
            kMistrustFraction * std::max(actual, 1.0))
            validator_.reportMismatch(coreId);
    }

    validated_ = snap;
    validator_.sanitise(validated_);

    // Drop from the primary to the Foxton* tier while any sensor is
    // quarantined: the optimiser fits models to substituted data, the
    // reduction baseline only needs the budget, so distrust alone is
    // reason enough to prefer it.
    if (tier_ == GuardTier::Primary && !validator_.allTrusted()) {
        tier_ = GuardTier::Fallback;
        ++stats_.fallbackEngagements;
        violationStreak_ = 0;
        cleanStreak_ = 0;
    }

    // Close the prediction loop: hand the managers a budget shaved by
    // however far above its own prediction the chip has been
    // settling (sensor models freeze leakage at the pre-decision
    // temperature, so they systematically miss the warm-up).
    if (snap.ptargetW > 0.0) {
        validated_.ptargetW =
            std::max(snap.ptargetW * kMinTargetFraction,
                     snap.ptargetW - biasW_);
    }

    switch (tier_) {
      case GuardTier::Primary:
        levels_ = primary_->selectLevels(validated_);
        break;
      case GuardTier::Fallback:
        levels_ = fallback_.selectLevels(validated_);
        break;
      case GuardTier::SafeMode:
        levels_.assign(n, 0);
        break;
    }

    // Sanity-check the decision against the validated power model:
    // if even the manager's own inputs predict a busted budget (an
    // infeasible LP, a bugged manager), override with the Foxton*
    // reduction and keep the elementwise minimum of the two.
    if (tier_ != GuardTier::SafeMode &&
        validated_.ptargetW > 0.0 &&
        validated_.powerAt(levels_) >
            validated_.ptargetW * (1.0 + kViolationTolerance)) {
        const std::vector<int> &reduced =
            fallback_.selectLevels(validated_);
        for (std::size_t i = 0; i < n; ++i)
            levels_[i] = std::min(levels_[i], reduced[i]);
        ++stats_.decisionOverrides;
    }

    lastDecision_.clear();
    for (std::size_t i = 0; i < n; ++i)
        lastDecision_.emplace_back(snap.cores[i].coreId, levels_[i]);
    lastPredictedW_ = validated_.powerAt(levels_);
    settleScored_ = false;
    awaitingDecision_ = false;
    return levels_;
}

void
GuardedPowerManager::observeSettled(const ChipCondition &cond,
                                    double ptargetW, double pcoreMaxW,
                                    std::size_t firstTick,
                                    std::size_t ticks, double tickMs)
{
    if (ticks == 0)
        return;
    settledPowerW_ = cond.corePowerW;

    // Score the last decision's power prediction against the first
    // settle after it; the (clamped-positive) bias shaves future
    // effective budgets. Undershoot decays the bias instead of
    // raising the budget above Ptarget.
    if (lastPredictedW_ > 0.0 && !settleScored_) {
        const double delta = cond.totalPowerW - lastPredictedW_;
        biasW_ = std::max(0.0, (1.0 - kBiasGain) * biasW_ +
                                   kBiasGain * delta);
        settleScored_ = true;
    }

    bool violated =
        ptargetW > 0.0 &&
        cond.totalPowerW >
            ptargetW * (1.0 + kViolationTolerance);
    if (pcoreMaxW > 0.0) {
        for (double p : cond.corePowerW) {
            if (p > pcoreMaxW * (1.0 + kCoreViolationTolerance))
                violated = true;
        }
    }

    // Every tick gets the same verdict; the streaks it feeds still
    // move one tick at a time.
    for (std::size_t tick = firstTick; tick < firstTick + ticks; ++tick) {
        if (violated) {
            ++stats_.violations;
            cleanStreak_ = 0;
            // A freshly changed tier needs one applied decision before
            // the chip can react; don't punish it for stale violations.
            if (!awaitingDecision_) {
                ++violationStreak_;
                if (violationStreak_ >= kDegradeAfter &&
                    tier_ != GuardTier::SafeMode) {
                    tier_ = static_cast<GuardTier>(
                        static_cast<int>(tier_) + 1);
                    ++stats_.fallbackEngagements;
                    violationStreak_ = 0;
                    awaitingDecision_ = true;
                }
            }
        } else {
            violationStreak_ = 0;
            ++cleanStreak_;
            if (cleanStreak_ >= kRecoverAfter &&
                tier_ != GuardTier::Primary) {
                // The final step back to the primary additionally
                // requires every sensor to be trusted again.
                const bool sensorsOk = tier_ != GuardTier::Fallback ||
                    validator_.allTrusted();
                if (sensorsOk) {
                    tier_ = static_cast<GuardTier>(
                        static_cast<int>(tier_) - 1);
                    cleanStreak_ = 0;
                    awaitingDecision_ = true;
                    if (tier_ == GuardTier::Primary)
                        ++stats_.recoveries;
                }
            }
        }

        // Tier time. A recovery takes kRecoverAfter clean ticks and
        // selectLevels only degrades, so each one ends a timed episode.
        const double nowMs = static_cast<double>(tick) * tickMs;
        const bool degraded = tier_ != GuardTier::Primary;
        if (degraded && !observedDegraded_)
            degradeStartMs_ = nowMs;
        if (!degraded && observedDegraded_)
            stats_.recoveryMs += nowMs - degradeStartMs_;
        if (degraded)
            stats_.degradedTimeMs += tickMs;
        observedDegraded_ = degraded;
    }
}

} // namespace varsched
