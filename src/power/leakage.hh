/**
 * @file
 * Static (leakage) power model in the HotLeakage tradition.
 *
 * Subthreshold leakage follows the BSIM-style form
 *   Isub ∝ T^2 · exp((-Vth + eta·V) / (n·vT)),   vT = kT/q,
 * which captures the three couplings the paper's algorithms exploit:
 * exponential growth as local Vth drops (why low-Vth cores leak),
 * super-linear growth with supply voltage (why DVFS saves so much),
 * and exponential growth with temperature (why VarP&AppP tries to
 * even out power density). Gate leakage is a smaller V^2 term.
 *
 * The per-transistor *random* Vth component is folded in analytically:
 * averaging exp(-dV/(n vT)) over dV ~ N(0, sigma_ran) multiplies
 * leakage by exp(sigma_ran^2 / (2 (n vT)^2)) — with-variation chips
 * leak more than nominal even at unchanged mean Vth, as Section 3
 * notes.
 */

#ifndef VARSCHED_POWER_LEAKAGE_HH
#define VARSCHED_POWER_LEAKAGE_HH

#include <array>
#include <cstddef>
#include <vector>

#include "floorplan/floorplan.hh"
#include "varius/varmap.hh"

namespace varsched
{

/** Leakage model parameters and calibration anchors. */
struct LeakageParams
{
    /** DIBL coefficient eta: effective Vth drop per volt of Vdd. */
    double dibl = 0.15;
    /** Subthreshold slope factor n. */
    double slopeFactor = 3.0;
    /** Reference temperature for calibration, Celsius. */
    double refTempC = 60.0;
    /** Nominal Vth at the reference temperature, volts. */
    double nominalVth = 0.250;
    /** Nominal supply, volts. */
    double nominalVdd = 1.0;
    /**
     * Calibration anchor: subthreshold leakage of one *variation-free*
     * core at (nominalVdd, refTempC), watts. Chosen so static power is
     * roughly a third of a nominal core's total, per 32 nm ITRS-era
     * projections.
     */
    double nominalCoreSubthresholdW = 3.8;
    /** Gate-leakage of one core at nominalVdd, watts (scales as V^2). */
    double nominalCoreGateW = 0.50;
    /**
     * Leakage of each L2 block at (nominalVdd, refTempC), watts. L2
     * arrays use high-Vth/low-leak cells, so density is far below the
     * cores' despite the larger area.
     */
    double nominalL2BlockW = 1.2;
    /** Vth temperature coefficient, V/K (Vth falls as T rises). */
    double vthTempCoeff = 0.00035;
    /** Grid sample points per core edge when integrating the map. */
    std::size_t samplesPerEdge = 6;
};

/** A core's leakage at one temperature; see LeakageModel::coreKernel. */
struct CoreLeakageKernel
{
    double scale = 0.0;  ///< randomBoost·norm·T²·A_c(T)/N, W/V.
    double dScale = 0.0; ///< d(scale)/dT, W/(V K).
    double invNvt = 0.0; ///< 1/(n vT) at the kernel's temperature.
    double tempK = 0.0;  ///< The kernel's temperature, kelvin.
};

/**
 * A core's leakage kernel over [kMinC, kMaxC], fitted once. With
 * beta = 1/(n vT), scale(T) = norm·T²·exp(h(beta)) where
 *   h(beta) = sigma²beta²/2 + ln(A_c/N)
 * is smooth in beta, and so is beta·h'(beta), the weighted mean of
 * the sweep's exponents plus constants. Each is held as the
 * degree-kDegree Hermite interpolant in beta through its values and
 * slopes at 7 Chebyshev nodes; see LeakageModel::fitKernel.
 */
struct CoreLeakageTable
{
    static constexpr std::size_t kDegree = 13;
    static constexpr double kMinC = -40.0;
    static constexpr double kMaxC = 200.0;

    std::array<double, kDegree + 1> h{};      ///< Coefficients of h.
    std::array<double, kDegree + 1> betaDh{}; ///< ... of beta·h'.

    static bool covers(double tempC)
    { return tempC >= kMinC && tempC <= kMaxC; }
};

/** Leakage evaluator bound to a parameter set. */
class LeakageModel
{
  public:
    explicit LeakageModel(const LeakageParams &params = {});

    /**
     * Total static power of core @p coreId on die @p map: integrates
     * the systematic Vth field over the core tile, folds the random
     * component analytically, and adds gate leakage.
     *
     * @param v Core supply voltage.
     * @param tempC Core temperature, Celsius.
     * @param vthShift Uniform Vth offset applied to the whole core
     *        (a per-core body bias; 0 for an unbiased die).
     */
    double corePower(const VariationMap &map, const Floorplan &plan,
                     std::size_t coreId, double v, double tempC,
                     double vthShift = 0.0) const;

    /**
     * The systematic-Vth samples corePower() integrates over, in its
     * exact iteration order. The sample positions depend only on the
     * floorplan and the map is frozen at manufacture, so callers that
     * query leakage millions of times per die (the tick loop) can
     * sample once and fold through corePowerSampled() instead of
     * re-interpolating the field on every call.
     */
    std::vector<double> sampleCoreVth(const VariationMap &map,
                                      const Floorplan &plan,
                                      std::size_t coreId) const;

    /** corePower() on pre-sampled Vth values. */
    double corePowerSampled(const std::vector<double> &vthSamples,
                            double sigmaRandom, double v, double tempC,
                            double vthShift = 0.0) const
    {
        return corePowerAt(
            coreKernel(vthSamples, sigmaRandom, tempC, vthShift), v);
    }

    /**
     * A core's subthreshold leakage at one temperature from one exp
     * sweep over its Vth samples. Only -vth_i/(n vT) varies across
     * samples, so Psub(V, T) = scale(T) · V · exp(eta·V/(n vT)) with
     *   scale(T) = randomBoost(T) · norm · T² · A_c(T) / N,
     *   A_c(T) = sum_i exp(-(vth_i + vthShift - dVth(T))/(n vT)),
     * and every voltage level reuses the kernel.
     */
    CoreLeakageKernel coreKernel(const std::vector<double> &vthSamples,
                                 double sigmaRandom, double tempC,
                                 double vthShift = 0.0) const;

    /** Fit coreKernel() over the table's range from one exp sweep. */
    CoreLeakageTable fitKernel(const std::vector<double> &vthSamples,
                               double sigmaRandom,
                               double vthShift = 0.0) const;

    /**
     * coreKernel() from a fitted table: two degree-13 polynomials and
     * one exp. @pre CoreLeakageTable::covers(tempC).
     */
    CoreLeakageKernel tableKernel(const CoreLeakageTable &table,
                                  double tempC) const;

    /**
     * Static power (subthreshold + gate) of a core at supply @p v
     * from its kernel; @p dPdT, when non-null, receives the
     * temperature slope dP/dT in W/K.
     */
    double corePowerAt(const CoreLeakageKernel &kernel, double v,
                       double *dPdT = nullptr) const;

    /**
     * Static power of one L2 block at the given operating point;
     * @p dPdT, when non-null, receives its temperature slope, W/K.
     */
    double l2BlockPower(const VariationMap &map, const Floorplan &plan,
                        std::size_t l2Index, double v, double tempC,
                        double *dPdT = nullptr) const;

    /** Parameters in use. */
    const LeakageParams &params() const { return params_; }

  private:
    LeakageParams params_;
    double norm_; ///< Normalisation so nominal core == anchor watts.
    double betaMid_, betaHalf_; ///< The table's beta = 1/(n vT) range.
};

} // namespace varsched

#endif // VARSCHED_POWER_LEAKAGE_HH
