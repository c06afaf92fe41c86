/**
 * @file
 * Per-core critical-path population and maximum-frequency model.
 *
 * Following VARIUS, a core's cycle time is set by the slowest of a
 * population of critical paths sampled across its footprint:
 *
 *  - *Logic* paths (ALU/decoder style): a chain of gatesPerPath gates,
 *    so the random Vth/Leff component averages down by sqrt(G) while
 *    the systematic component follows the path's die location.
 *  - *SRAM* paths (L1 access style): the access is gated by the worst
 *    cell in the array, so the random component contributes its
 *    statistical maximum over the cell population instead of
 *    averaging out.
 *
 * fmax(V, T) = calibration / max-path-delay(V, T), with the
 * calibration constant chosen so a variation-free core clocks the
 * nominal 4 GHz at 1 V and the hot 95 C binning temperature.
 */

#ifndef VARSCHED_TIMING_CRITPATH_HH
#define VARSCHED_TIMING_CRITPATH_HH

#include <cstddef>
#include <vector>

#include "floorplan/floorplan.hh"
#include "solver/rng.hh"
#include "timing/alphapower.hh"
#include "varius/varmap.hh"

namespace varsched
{

/**
 * Smallest admissible normalised Leff for a sampled path. The random
 * component can drive a draw towards zero (or negative), where the
 * alpha-power delay model loses meaning; both the logic- and the
 * SRAM-path sampling loops clamp to this floor.
 */
inline constexpr double kMinLeff = 0.3;

/** Critical-path population parameters. */
struct CritPathParams
{
    /** Logic critical paths per core. */
    std::size_t logicPathsPerCore = 24;
    /** Gates per logic path (FO4-ish depth). */
    std::size_t gatesPerPath = 12;
    /** SRAM critical paths per core (one per array/bank). */
    std::size_t sramPathsPerCore = 8;
    /** Cells whose worst-case delay gates one SRAM path. */
    double sramCellsPerPath = 32.0 * 1024.0;
    /** Nominal frequency at (1 V, bin temperature), Hz. */
    double nominalFreqHz = 4.0e9;
    /** Nominal supply voltage, volts. */
    double nominalVdd = 1.0;
    /** Frequency binning temperature, Celsius (Section 7.1). */
    double binTempC = 95.0;
};

/**
 * Timing view of one manufactured core: effective (Vth, Leff) per
 * critical path, and fmax as a function of voltage and temperature.
 *
 * The population is stored structure-of-arrays — one contiguous Vth
 * sweep and one contiguous Leff sweep — so maxDelay() can hand the
 * whole population to the batched gateDelayBatch() kernel, which
 * agrees with per-path gateDelay() calls to <= 1e-12 relative
 * (tests/test_batchkernels.cc holds that scalar reference).
 */
class CoreTiming
{
  public:
    /** One critical path's effective device parameters. */
    struct Path
    {
        double vthEff;  ///< Effective Vth at 60 C, volts.
        double leffEff; ///< Effective normalised Leff.
    };

    /**
     * @param paths Sampled path population (must be non-empty).
     * @param delayParams Device delay model.
     * @param cpParams Population and calibration parameters.
     * @param vthNominal Variation-free Vth (60 C), the calibration
     *        reference that maps to nominalFreqHz.
     * @param leffNominal Variation-free normalised Leff.
     */
    CoreTiming(std::vector<Path> paths, const DelayParams &delayParams,
               const CritPathParams &cpParams, double vthNominal,
               double leffNominal);

    /**
     * Apply a uniform threshold-voltage shift to every path — the
     * effect of a per-core body bias (forward bias: negative shift,
     * faster and leakier; reverse bias: positive shift).
     */
    void shiftVth(double deltaV);

    /**
     * Worst (largest) path delay at the given operating point,
     * evaluated through the batched kernel.
     */
    double maxDelay(double v, double tempC) const;

    /** Maximum supported frequency (Hz) at the given operating point. */
    double fmax(double v, double tempC) const;

    /** Number of critical paths. */
    std::size_t numPaths() const { return vth_.size(); }

    /** Path population materialised as AoS (for tests / analysis). */
    std::vector<Path> paths() const;

    /** Contiguous per-path Vth sweep (60 C values, volts). */
    const std::vector<double> &pathVth() const { return vth_; }
    /** Contiguous per-path normalised-Leff sweep. */
    const std::vector<double> &pathLeff() const { return leff_; }

  private:
    std::vector<double> vth_;  ///< SoA: per-path Vth at 60 C.
    std::vector<double> leff_; ///< SoA: per-path normalised Leff.
    DelayParams delayParams_;
    double delayScale_; ///< Converts relative delay to seconds.
};

/**
 * Build the timing view of core @p coreId on a die described by
 * @p map, sampling path locations inside the core's floorplan tile.
 *
 * @param rng Per-die stream; path placement and residual randomness
 *        are deterministic given the die seed.
 */
CoreTiming buildCoreTiming(const VariationMap &map, const Floorplan &plan,
                           std::size_t coreId, Rng &rng,
                           const DelayParams &delayParams = {},
                           const CritPathParams &cpParams = {});

/**
 * Relative delay of the nominal (variation-free) critical path at
 * (nominalVdd, binTempC) — the calibration reference.
 */
double nominalPathDelay(const DelayParams &delayParams,
                        const CritPathParams &cpParams,
                        double vthMean, double leffMean);

} // namespace varsched

#endif // VARSCHED_TIMING_CRITPATH_HH
