#include "fault/validate.hh"

#include <algorithm>
#include <cmath>

namespace varsched
{

bool
SensorValidator::plausible(std::span<const double> curve,
                           const ChipSnapshot &snap,
                           const SensorHealth &h) const
{
    if (curve.empty())
        return false;

    const double ceiling = std::max(
        kMaxCoreW, snap.pcoreMaxW > 0.0 ? 3.0 * snap.pcoreMaxW : 0.0);
    for (double p : curve) {
        if (!(p >= kMinCoreW) || p > ceiling || !std::isfinite(p))
            return false;
    }

    // A live power curve rises with voltage; a stuck sensor is flat.
    const double lo = curve.front();
    const double hi = curve.back();
    if (hi - lo < kMinCurveSpreadFraction * std::max(hi, 1e-9))
        return false;
    for (std::size_t l = 1; l < curve.size(); ++l) {
        if (curve[l] < curve[l - 1] * (1.0 - kMonotoneTolerance))
            return false;
    }

    // Rate-of-change vs the last curve that passed (fresh only).
    if (!h.lastGood.empty() && h.staleness == 0 &&
        h.lastGood.size() == curve.size()) {
        const double ref = h.lastGood.back();
        if (std::abs(hi - ref) > kMaxChangeFraction * std::max(ref, 1.0))
            return false;
    }
    return true;
}

void
SensorValidator::pessimisticCurve(const ChipSnapshot &snap,
                                  std::span<double> out)
{
    // Conservative stand-in: assume the core burns its full per-core
    // cap at the top voltage, scaled down quadratically with V. Over-
    // estimating power makes every manager pick lower, safer levels.
    const double cap =
        snap.pcoreMaxW > 0.0 ? snap.pcoreMaxW : kMaxCoreW;
    const double vTop =
        snap.voltage.empty() ? 1.0 : snap.voltage.back();
    for (std::size_t l = 0; l < out.size(); ++l) {
        const double v = snap.voltage[l];
        out[l] = cap * (v / vTop) * (v / vTop);
    }
}

std::size_t
SensorValidator::sanitise(ChipSnapshot &snap)
{
    std::size_t substituted = 0;
    for (std::size_t i = 0; i < snap.cores.size(); ++i) {
        const std::span<double> curve = snap.powerRow(i);
        SensorHealth &h = health_[snap.cores[i].coreId];
        if (plausible(curve, snap, h)) {
            h.badStreak = 0;
            ++h.goodStreak;
            if (h.quarantined && h.goodStreak >= kRecoverAfter)
                h.quarantined = false;
            if (!h.quarantined) {
                h.lastGood.assign(curve.begin(), curve.end());
                h.staleness = 0;
            }
        } else {
            h.goodStreak = 0;
            ++h.badStreak;
            if (!h.quarantined && h.badStreak >= kQuarantineAfter) {
                h.quarantined = true;
                ++quarantineEvents_;
            }
        }
        if (h.quarantined) {
            ++substituted;
            ++h.staleness;
            if (!h.lastGood.empty() && h.lastGood.size() == curve.size() &&
                h.staleness <= kMaxStaleIntervals) {
                std::copy(h.lastGood.begin(), h.lastGood.end(),
                          curve.begin());
            } else {
                pessimisticCurve(snap, curve);
            }
        }
    }
    return substituted;
}

void
SensorValidator::reportMismatch(std::size_t coreId)
{
    SensorHealth &h = health_[coreId];
    h.goodStreak = 0;
    ++h.badStreak;
    if (!h.quarantined && h.badStreak >= kQuarantineAfter) {
        h.quarantined = true;
        ++quarantineEvents_;
    }
}

bool
SensorValidator::allTrusted() const
{
    for (const auto &[coreId, h] : health_) {
        (void)coreId;
        if (h.quarantined)
            return false;
    }
    return true;
}

const SensorHealth &
SensorValidator::health(std::size_t coreId) const
{
    static const SensorHealth kFresh;
    const auto it = health_.find(coreId);
    return it == health_.end() ? kFresh : it->second;
}

} // namespace varsched
