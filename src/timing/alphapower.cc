#include "timing/alphapower.hh"

#include "runtime/simd.hh"

#include <cmath>
#include <vector>

namespace varsched
{

double
vthAtTemp(double vthRef, double tempC, const DelayParams &params)
{
    return vthRef - params.vthTempCoeff * (tempC - params.refTempC);
}

namespace
{

// Below ~50 mV of overdrive the gate is effectively off at speed;
// return a delay large enough that fmax collapses smoothly.
constexpr double kMinOverdrive = 0.05;

/** (T/Tref)^mobilityExponent — the (V,T)-invariant derating factor. */
double
mobilityDerateAt(double tempC, const DelayParams &params)
{
    const double tKelvin = tempC + 273.15;
    const double tRefKelvin = params.refTempC + 273.15;
    return std::pow(tKelvin / tRefKelvin, params.mobilityExponent);
}

/** Soft-clamped overdrive shared by the scalar and batched kernels. */
inline double
effectiveOverdrive(double overdrive)
{
    return overdrive < kMinOverdrive
        ? kMinOverdrive * kMinOverdrive / (2.0 * kMinOverdrive - overdrive)
        : overdrive;
}

} // namespace

double
gateDelay(double leff, double vthRef, double v, double tempC,
          const DelayParams &params)
{
    const double vth = vthAtTemp(vthRef, tempC, params);
    const double effOverdrive = effectiveOverdrive(v - vth);
    const double mobilityDerate = mobilityDerateAt(tempC, params);
    return leff * v * mobilityDerate / std::pow(effOverdrive, params.alpha);
}

void
gateDelayBatch(const double *leff, const double *vth, std::size_t n,
               double v, double tempC, const DelayParams &params,
               double *out)
{
    // Hoist everything that does not depend on the path. The per-path
    // body below evaluates the exact same subexpressions as
    // gateDelay(), so the sweep is bit-identical to the scalar loop.
    const double dVth = params.vthTempCoeff * (tempC - params.refTempC);
    const double mobilityDerate = mobilityDerateAt(tempC, params);
    const double alpha = params.alpha;

    if (simd::enabled() && n >= 8) {
        // Vector path: stage the (strictly positive) soft-clamped
        // overdrives, raise them to alpha as one exp(alpha*log) sweep,
        // and finish with the same leff*V*derate/pow expression.
        // Agrees with the scalar loop below (and with per-path
        // gateDelay, the reference in tests/test_batchkernels.cc) to
        // <= 1e-12.
        static thread_local std::vector<double> effBuf;
        static thread_local std::vector<double> powBuf;
        effBuf.resize(n);
        powBuf.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            effBuf[i] = effectiveOverdrive(v - (vth[i] - dVth));
        simd::powSweep(effBuf.data(), alpha, powBuf.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            out[i] = leff[i] * v * mobilityDerate / powBuf[i];
        return;
    }

    for (std::size_t i = 0; i < n; ++i) {
        const double effOverdrive =
            effectiveOverdrive(v - (vth[i] - dVth));
        out[i] = leff[i] * v * mobilityDerate /
            std::pow(effOverdrive, alpha);
    }
}

} // namespace varsched
