/**
 * @file
 * A manufactured die: the variation map realised into per-core
 * frequency tables and leakage behaviour.
 *
 * The Die bundles exactly the information the paper's Table 3 says
 * the manufacturer provides after binning:
 *  - per core, the maximum frequency supported at each voltage level
 *    (binned at 95 C, quantised to the frequency step), and
 *  - per core, the static power at each voltage level (measured at
 *    zero load and reference temperature).
 * plus the underlying physical models, which the run-time "sensors"
 * (chip/sensors) use to synthesise power/IPC readings.
 */

#ifndef VARSCHED_CHIP_DIE_HH
#define VARSCHED_CHIP_DIE_HH

#include <cstdint>
#include <vector>

#include "floorplan/floorplan.hh"
#include "power/dynamic.hh"
#include "power/leakage.hh"
#include "thermal/thermal.hh"
#include "timing/critpath.hh"
#include "varius/varmap.hh"

namespace varsched
{

/** Everything needed to manufacture and operate dies. */
struct DieParams
{
    VariationParams variation;
    DelayParams delay;
    CritPathParams critPath;
    LeakageParams leakage;
    ThermalParams thermal;
    DynamicPowerParams dynamic;

    /** Number of cores (Table 4: 20). */
    std::size_t numCores = 20;
    /** Die area, mm^2. */
    double dieAreaMm2 = 340.0;
    /** Voltage levels, volts (0.6-1.0 V in 0.05 V steps). */
    std::vector<double> voltageLevels = {0.60, 0.65, 0.70, 0.75, 0.80,
                                         0.85, 0.90, 0.95, 1.00};
    /** Frequency quantisation step, Hz (62.5 MHz). */
    double freqStepHz = 62.5e6;

    /**
     * Adaptive Body Bias strength in [0, 1] (Humenay et al., the
     * mitigation discussed in the paper's Related Work). Slow cores
     * receive a *forward* body bias (a Vth reduction, found by
     * bisection) that closes this fraction of their frequency deficit
     * against the die's median core. Speeding a core up this way
     * inflates its leakage exponentially — ABB trades reduced
     * frequency variation for increased power (and power-variation),
     * exactly Humenay et al.'s observation. 0 disables ABB.
     */
    double abbStrength = 0.0;
    /** Maximum forward bias (Vth reduction) available, volts. */
    double abbMaxBiasV = 0.06;
};

/** One manufactured die. */
class Die
{
  public:
    /**
     * Manufacture a die: draw its variation maps and bin every core.
     *
     * @param params Technology/architecture parameters.
     * @param dieSeed Seed identifying this die; the whole object is a
     *        pure function of (params, dieSeed).
     */
    Die(const DieParams &params, std::uint64_t dieSeed);

    /** Number of cores. */
    std::size_t numCores() const { return plan_.numCores(); }
    /** Number of voltage levels. */
    std::size_t numLevels() const { return params_.voltageLevels.size(); }
    /** Voltage of level @p level (volts, ascending). */
    double voltage(std::size_t level) const
    { return params_.voltageLevels[level]; }
    /** Index of the highest level. */
    std::size_t maxLevel() const { return numLevels() - 1; }

    /**
     * Binned frequency of core @p core at voltage level @p level
     * (guaranteed at temperatures up to the binning temperature).
     */
    double freqAt(std::size_t core, std::size_t level) const
    { return freqTable_[core][level]; }

    /** Maximum frequency of a core (at the top voltage level). */
    double maxFreq(std::size_t core) const
    { return freqTable_[core][maxLevel()]; }

    /** Slowest core's maximum frequency (the UniFreq chip clock). */
    double uniformFreq() const;

    /**
     * Manufacturer-measured static power of a core at a voltage
     * level and the reference temperature (zero-load measurement;
     * Table 3's VarP / VarP&AppP input).
     */
    double staticPowerAt(std::size_t core, std::size_t level) const
    { return staticTable_[core][level]; }

    /** Live leakage power of a core at arbitrary (V, T). */
    double leakagePower(std::size_t core, double v, double tempC) const
    { return leakModel_.corePowerAt(leakageKernel(core, tempC), v); }

    /**
     * Core @p core's leakage kernel at @p tempC (all levels): from the
     * core's table inside its range, else from a sweep over the core's
     * Vth samples (counted by the power.leak_kernel.sweeps counter).
     */
    CoreLeakageKernel leakageKernel(std::size_t core, double tempC) const;

    /** Body-bias Vth shift applied to core @p core (0 without ABB). */
    double vthBias(std::size_t core) const { return vthBias_[core]; }

    /** Leakage of L2 block @p idx at (V, T); optional dP/dT out. */
    double l2LeakagePower(std::size_t idx, double v, double tempC,
                          double *dPdT = nullptr) const
    { return leakModel_.l2BlockPower(map_, plan_, idx, v, tempC, dPdT); }

    /** Underlying models and geometry. */
    const Floorplan &floorplan() const { return plan_; }
    const VariationMap &variationMap() const { return map_; }
    const DieParams &params() const { return params_; }
    const LeakageModel &leakageModel() const { return leakModel_; }
    const DynamicPowerModel &dynamicModel() const { return dynModel_; }
    const ThermalModel &thermalModel() const { return thermalModel_; }

    /** Seed this die was manufactured with. */
    std::uint64_t seed() const { return seed_; }

  private:
    DieParams params_;
    std::uint64_t seed_;
    Floorplan plan_;
    VariationMap map_;
    LeakageModel leakModel_;
    DynamicPowerModel dynModel_;
    ThermalModel thermalModel_;
    std::vector<CoreTiming> timing_;
    std::vector<double> vthBias_; ///< Per-core ABB shift, volts.
    /**
     * Per-core systematic-Vth samples at the leakage model's fixed
     * integration points, taken once at manufacture (the map never
     * changes afterwards) so live leakage queries skip the field
     * interpolation. Value semantics: survives copies/moves of the
     * die, unlike a pointer-keyed cache would.
     */
    std::vector<std::vector<double>> vthSamples_;
    std::vector<CoreLeakageTable> leakTables_; ///< Fitted per core.
    std::vector<std::vector<double>> freqTable_;   ///< [core][level]
    std::vector<std::vector<double>> staticTable_; ///< [core][level]
};

/**
 * Manufacture a reproducible batch of dies (the paper uses 200 per
 * experiment).
 */
std::vector<Die> manufactureBatch(const DieParams &params,
                                  std::size_t count,
                                  std::uint64_t batchSeed);

} // namespace varsched

#endif // VARSCHED_CHIP_DIE_HH
