/**
 * @file
 * Steady-state thermal model in the HotSpot tradition: the die's
 * silicon blocks (20 core tiles + 2 L2 stripes) form nodes of an RC
 * network with lateral silicon conductances between abutting blocks
 * and a vertical path through heat spreader and heat sink to ambient.
 * Only the steady state matters at the 10 ms-to-seconds timescales of
 * the scheduling experiments, so the network solves G*T = P directly.
 *
 * The leakage <-> temperature fixed point of Su et al. (temperature
 * raises leakage raises temperature ...) is solved by the caller
 * (chip/sensors.cc), which owns the leakage model, on the linear map
 * T = t0 + R·P that blockResponse() and zeroPowerTemps() give.
 */

#ifndef VARSCHED_THERMAL_THERMAL_HH
#define VARSCHED_THERMAL_THERMAL_HH

#include <cstddef>
#include <vector>

#include "floorplan/floorplan.hh"
#include "solver/matrix.hh"

namespace varsched
{

/** Package and material parameters. */
struct ThermalParams
{
    /** Ambient (inside-case) temperature, Celsius. */
    double ambientC = 45.0;
    /** Silicon thermal conductivity, W/(m K). */
    double siliconConductivity = 110.0;
    /** Effective silicon thickness for lateral spreading, metres. */
    double siliconThicknessM = 7.0e-4;
    /** Junction-to-spreader specific resistance, K m^2 / W. */
    double verticalResistivity = 40.0e-6;
    /** Heat-spreader to heat-sink lumped resistance, K/W. */
    double spreaderToSinkR = 0.03;
    /** Heat-sink to ambient lumped resistance, K/W. */
    double sinkToAmbientR = 0.15;

    /** Silicon volumetric heat capacity, J/(K m^3). */
    double siliconHeatCapacity = 1.75e6;
    /** Die thickness used for block thermal mass, metres. */
    double dieThicknessM = 3.0e-4;
    /** Heat-spreader lumped thermal mass, J/K (copper slab). */
    double spreaderCapacity = 120.0;
    /** Heat-sink lumped thermal mass, J/K (finned aluminium). */
    double sinkCapacity = 800.0;
};

/** Steady-state block temperatures. */
struct ThermalResult
{
    std::vector<double> coreTempC; ///< One per core.
    std::vector<double> l2TempC;   ///< One per L2 block.
    double spreaderC = 0.0;        ///< Heat-spreader temperature.
    double sinkC = 0.0;            ///< Heat-sink temperature.
};

/**
 * Thermal network bound to a floorplan. Construction precomputes the
 * conductance matrix; solve() runs per power map.
 */
class ThermalModel
{
  public:
    explicit ThermalModel(const Floorplan &plan,
                          const ThermalParams &params = {});

    /**
     * Solve for steady-state temperatures.
     *
     * @param corePowerW Per-core total power (dynamic + static), W.
     * @param l2PowerW Per-L2-block power, W.
     */
    ThermalResult solve(const std::vector<double> &corePowerW,
                        const std::vector<double> &l2PowerW) const;

    /**
     * Advance a transient solution by @p dtMs: integrate
     * C dT/dt = P - G T with implicit-stability-friendly sub-steps
     * (forward Euler bounded by the smallest block time constant).
     * Silicon blocks react within milliseconds; the spreader and
     * sink take seconds — the thermal low-pass that smooths DVFS
     * steps in the transient system mode.
     *
     * @param state In/out temperatures from a previous solve() or
     *        transientStep() (spreader/sink fields included).
     */
    void transientStep(ThermalResult &state,
                       const std::vector<double> &corePowerW,
                       const std::vector<double> &l2PowerW,
                       double dtMs) const;

    /** System matrix G of G·T = P (cores, L2s, spreader, sink). */
    const Matrix &conductance() const { return conductance_; }

    /**
     * Response R of every node (rows) to one watt in each block
     * (cores, then L2s): the block columns of G⁻¹, so T = t0 + R·P.
     */
    Matrix blockResponse() const;

    /** Per-node steady state with every block unpowered (t0). */
    std::vector<double> zeroPowerTemps() const;

    /** Per-node heat capacities (cores, L2s, spreader, sink), J/K. */
    const std::vector<double> &capacities() const { return capacity_; }

    /** Parameters in use. */
    const ThermalParams &params() const { return params_; }

  private:
    std::size_t numCores_;
    std::size_t numL2_;
    ThermalParams params_;
    Matrix conductance_; ///< (numBlocks+2)^2 system matrix.
    Matrix factor_;      ///< Cholesky factor of conductance_ (fixed).
    std::vector<double> capacity_; ///< Per-node thermal mass, J/K.

    /**
     * Per-node nonzero off-diagonal conductances, (neighbour, g)
     * pairs. The RC network is sparse (each block touches a handful
     * of neighbours plus the spreader), so the transient stepper
     * walks these lists instead of a dense O(n²) row product.
     */
    std::vector<std::vector<std::pair<std::size_t, double>>> neighbors_;
};

} // namespace varsched

#endif // VARSCHED_THERMAL_THERMAL_HH
