/**
 * @file
 * Test oracle for the leakage kernel (LeakageModel::coreKernel and
 * corePowerAt). It is the per-sample fold the model ran before the
 * kernel factored the supply voltage out of the sample sum: every Vth
 * sample's full subthreshold term T²·V·exp((-vth(T) + eta·V)/(n vT))
 * is summed on its own, in long double, with the normalisation
 * re-derived from the calibration anchors. The kernel must agree with
 * it within 1e-12 relative on either dispatch path, and its dP/dT
 * within 1e-12 of the oracle's Richardson-extrapolated central
 * difference (long double leaves that difference ~1e-15 accurate).
 */

#ifndef VARSCHED_TESTS_LEAKAGE_ORACLE_HH
#define VARSCHED_TESTS_LEAKAGE_ORACLE_HH

#include <cmath>
#include <vector>

#include "power/leakage.hh"

namespace varsched::oracle
{

/** norm · V · T² · exp(arg) of one uniform region, long double. */
inline long double
subthreshold(const LeakageParams &p, long double vth60, long double v,
             long double tempC)
{
    const auto kernel = [&p](long double vth, long double volts,
                             long double t) {
        const long double nvt =
            p.slopeFactor * 8.617333e-5L * (t + 273.15L);
        const long double vthT = vth - p.vthTempCoeff * (t - p.refTempC);
        const long double tK = t + 273.15L;
        return volts * tK * tK * std::exp((-vthT + p.dibl * volts) / nvt);
    };
    const long double norm = p.nominalCoreSubthresholdW /
        kernel(p.nominalVth, p.nominalVdd, p.refTempC);
    return norm * kernel(vth60, v, tempC);
}

/** LeakageModel::corePowerSampled, sample by sample. */
inline long double
corePower(const LeakageParams &p, const std::vector<double> &vthSamples,
          double sigmaRandom, double v, long double tempC,
          double vthShift = 0.0)
{
    long double sum = 0.0L;
    for (const double vth : vthSamples)
        sum += subthreshold(p, static_cast<long double>(vth) + vthShift, v,
                            tempC);
    const long double nvt =
        p.slopeFactor * 8.617333e-5L * (tempC + 273.15L);
    const long double boost = std::exp(
        static_cast<long double>(sigmaRandom) * sigmaRandom /
        (2.0L * nvt * nvt));
    const long double vr = static_cast<long double>(v) / p.nominalVdd;
    return boost * sum / static_cast<long double>(vthSamples.size()) +
        p.nominalCoreGateW * vr * vr * vr * vr;
}

/** LeakageModel::l2BlockPower at a block-centre Vth of @p vthLocal. */
inline long double
l2Power(const LeakageParams &p, double vthLocal, double v,
        long double tempC)
{
    return p.nominalL2BlockW * subthreshold(p, vthLocal, v, tempC) /
        subthreshold(p, p.nominalVth, p.nominalVdd, p.refTempC);
}

/**
 * d/dT of @p f at @p tempC: central differences at h and h/2 combined
 * by one Richardson step, so the truncation error is O(h⁴).
 */
template <class F>
long double
slope(F f, long double tempC, long double h = 0.01L)
{
    const auto central = [&](long double step) {
        return (f(tempC + step) - f(tempC - step)) / (2.0L * step);
    };
    return (4.0L * central(h / 2.0L) - central(h)) / 3.0L;
}

} // namespace varsched::oracle

#endif // VARSCHED_TESTS_LEAKAGE_ORACLE_HH
