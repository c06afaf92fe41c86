/**
 * @file
 * Alpha-power-law MOSFET delay model (Sakurai-Newton) with
 * temperature effects, used to translate local Vth/Leff into gate and
 * path delays. Delay rises with Leff, falls with gate overdrive
 * (V - Vth)^alpha, and degrades with temperature through carrier
 * mobility; Vth itself drops slightly as temperature rises.
 */

#ifndef VARSCHED_TIMING_ALPHAPOWER_HH
#define VARSCHED_TIMING_ALPHAPOWER_HH

#include <cstddef>

namespace varsched
{

/** Device-level delay parameters. */
struct DelayParams
{
    /** Velocity-saturation exponent (~1.3 for short channels). */
    double alpha = 1.55;
    /** Vth decrease per Kelvin of warming, volts (BSIM-like). */
    double vthTempCoeff = 0.00035;
    /** Mobility scales as (T/Tref)^-mobilityExponent, T in Kelvin. */
    double mobilityExponent = 1.5;
    /** Temperature at which Vth maps are specified, Celsius. */
    double refTempC = 60.0;
};

/** Threshold voltage at temperature @p tempC given its 60 C value. */
double vthAtTemp(double vthRef, double tempC, const DelayParams &params);

/**
 * Relative gate delay (arbitrary units — calibrated elsewhere).
 *
 * d = Leff * V / (mobility(T) * (V - Vth(T))^alpha)
 *
 * @param leff Normalised effective gate length (nominal 1).
 * @param vthRef Threshold voltage at the 60 C reference, volts.
 * @param v Supply voltage, volts.
 * @param tempC Junction temperature, Celsius.
 * @return Relative delay; a very large value when the overdrive
 *         collapses (V close to or below Vth), so the core simply
 *         cannot clock at that voltage.
 */
double gateDelay(double leff, double vthRef, double v, double tempC,
                 const DelayParams &params);

/**
 * Batched gateDelay() over a contiguous path population at one
 * operating point: out[i] = gateDelay(leff[i], vth[i], v, tempC).
 *
 * The (V, T) invariants — the temperature shift of Vth and the
 * mobility derating — are hoisted out of the loop (they do not
 * depend on the path), leaving a contiguous sweep whose only
 * per-element transcendental is pow(overdrive, alpha). Because the
 * hoisted terms are the very same subexpressions the scalar path
 * computes, the batch result is bit-identical to calling gateDelay()
 * element by element on the scalar path; the documented agreement
 * contract for callers is <= 1e-12 relative, which covers the
 * dispatched vector pow sweep.
 *
 * @param leff  Array of n normalised effective gate lengths.
 * @param vth   Array of n threshold voltages at the 60 C reference.
 * @param out   Array of n relative delays (written).
 */
void gateDelayBatch(const double *leff, const double *vth, std::size_t n,
                    double v, double tempC, const DelayParams &params,
                    double *out);

} // namespace varsched

#endif // VARSCHED_TIMING_ALPHAPOWER_HH
