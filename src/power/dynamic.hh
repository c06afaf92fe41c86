/**
 * @file
 * Dynamic (switching) power model in the Wattch tradition: each core
 * functional unit has an effective switched capacitance, scaled by a
 * per-application, per-unit activity factor measured by the cmpsim
 * timing model. Unit powers scale as V^2 * f; the clock tree adds an
 * activity-independent component. L2 dynamic power follows the access
 * stream each application drives into the shared cache.
 */

#ifndef VARSCHED_POWER_DYNAMIC_HH
#define VARSCHED_POWER_DYNAMIC_HH

#include <array>
#include <cstddef>

#include "floorplan/floorplan.hh"

namespace varsched
{

/** Per-unit activity factors (0..1), one per CoreUnit. */
using ActivityVector = std::array<double, kNumCoreUnits>;

/** Dynamic power parameters. */
struct DynamicPowerParams
{
    /** Nominal supply, volts. */
    double nominalVdd = 1.0;
    /** Nominal frequency, Hz. */
    double nominalFreqHz = 4.0e9;
    /**
     * Watts each unit burns at full activity, nominal V and f
     * (Alpha-21264-like distribution across a ~7 W dynamic budget).
     */
    std::array<double, kNumCoreUnits> unitMaxW{
        1.25, // Fetch
        1.00, // Decode
        1.25, // RegFile
        1.70, // IntExec
        2.10, // FpExec
        1.10, // LoadStore
        1.10, // L1I
        1.55, // L1D
    };
    /** Clock tree + global wires at nominal V, f (always switching). */
    double clockTreeW = 1.10;
    /** Energy per L2 access at nominal Vdd, joules. */
    double l2AccessEnergyJ = 2.0e-9;
};

/** Dynamic power evaluator. */
class DynamicPowerModel
{
  public:
    explicit DynamicPowerModel(const DynamicPowerParams &params = {});

    /**
     * Dynamic power of one core at (v, f) with the given activity,
     * including the clock tree.
     */
    double corePower(const ActivityVector &activity, double v,
                     double f) const;

    /** Scale a power drawn at nominal (V, f) to (v, f). */
    double scaleToPoint(double nominalW, double v, double f) const;

    /** Dynamic power of one unit (excludes the clock tree). */
    double unitPower(CoreUnit unit, double activity, double v,
                     double f) const;

    /**
     * L2 dynamic power for an access stream of @p accessesPerSec
     * (the L2 runs on the uncore supply, held at nominal).
     */
    double l2Power(double accessesPerSec) const;

    /**
     * Solve for the activity scale that makes a core consume
     * @p targetW at nominal (V, f) given a relative per-unit shape;
     * used to calibrate application profiles to Table 5.
     *
     * @param shape Relative per-unit activity shape (any positive
     *        scale); the returned vector is shape * s, clamped to 1.
     */
    ActivityVector calibrateActivity(const ActivityVector &shape,
                                     double targetW) const;

    /** Parameters in use. */
    const DynamicPowerParams &params() const { return params_; }

  private:
    DynamicPowerParams params_;
};

} // namespace varsched

#endif // VARSCHED_POWER_DYNAMIC_HH
