/**
 * @file
 * Sensor validation: per-sensor health tracking between the raw chip
 * snapshot and the power managers.
 *
 * Every power manager in this repo trusts the per-core power curves
 * of the ChipSnapshot blindly; a stuck or dropped-out sensor turns
 * LinOpt's power fit (and Foxton*'s feedback loop) into silent
 * garbage. The SensorValidator screens each core's reported
 * power-vs-level curve with plausibility checks:
 *
 *  - range: every reading positive and below a physical ceiling;
 *  - shape: the curve must rise with voltage (a stuck sensor is
 *    flat, a dropout is zero);
 *  - rate-of-change: the top-level reading may not jump implausibly
 *    between consecutive snapshots;
 *  - cross-check: the guarded manager reports back when the settled
 *    power disagreed with what the sensor promised (reportMismatch).
 *
 * A sensor that fails a check is quarantined; its readings are
 * replaced by the last-known-good curve while that is fresh, then by
 * a conservative pessimistic curve (per-core cap at the top level).
 * Quarantine clears only after a run of consecutive clean checks —
 * hysteresis against flapping.
 */

#ifndef VARSCHED_FAULT_VALIDATE_HH
#define VARSCHED_FAULT_VALIDATE_HH

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "chip/sensors.hh"

namespace varsched
{

/** Health state of one core's power sensor. */
struct SensorHealth
{
    bool quarantined = false;
    int badStreak = 0;
    int goodStreak = 0;
    /** Snapshots since lastGood was refreshed. */
    int staleness = 0;
    /** Last power curve that passed every check. */
    std::vector<double> lastGood;
};

/** Screens and sanitises chip snapshots; tracks per-sensor health. */
class SensorValidator
{
  public:
    /** Absolute reading floor, W (a dropout reads ~0). */
    static constexpr double kMinCoreW = 1e-3;
    /** Absolute ceiling, W (also bounded by 3x the per-core cap). */
    static constexpr double kMaxCoreW = 60.0;
    /** Required (top - bottom) / top spread of a live curve. */
    static constexpr double kMinCurveSpreadFraction = 0.10;
    /** Allowed per-level decrease (sensor noise headroom). */
    static constexpr double kMonotoneTolerance = 0.05;
    /** Allowed change of the top-level reading between snapshots. */
    static constexpr double kMaxChangeFraction = 0.60;
    /** Failed checks before a sensor is quarantined. */
    static constexpr int kQuarantineAfter = 1;
    /** Consecutive clean checks before quarantine clears. */
    static constexpr int kRecoverAfter = 3;
    /** Snapshots a last-known-good curve stays usable. */
    static constexpr int kMaxStaleIntervals = 5;

    /**
     * Validate every core's power curve in @p snap, substituting
     * quarantined ones in place.
     *
     * @return Number of cores whose readings were substituted.
     */
    std::size_t sanitise(ChipSnapshot &snap);

    /**
     * External evidence against a sensor: the settled power did not
     * match what the sensor promised. Counts like a failed check.
     */
    void reportMismatch(std::size_t coreId);

    /** True when no tracked sensor is quarantined. */
    bool allTrusted() const;

    /** Total quarantine entries so far (telemetry). */
    std::size_t quarantineEvents() const { return quarantineEvents_; }

    /** Health of one sensor (default-constructed if never seen). */
    const SensorHealth &health(std::size_t coreId) const;

  private:
    bool plausible(std::span<const double> curve, const ChipSnapshot &snap,
                   const SensorHealth &h) const;
    /** Write the conservative stand-in curve of @p snap into @p out. */
    static void pessimisticCurve(const ChipSnapshot &snap,
                                 std::span<double> out);

    std::unordered_map<std::size_t, SensorHealth> health_;
    std::size_t quarantineEvents_ = 0;
};

} // namespace varsched

#endif // VARSCHED_FAULT_VALIDATE_HH
