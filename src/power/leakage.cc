#include "power/leakage.hh"

#include "runtime/simd.hh"

#include <cassert>
#include <cmath>

namespace varsched
{

namespace
{

/** Thermal voltage kT/q in volts at the given Celsius temperature. */
double
thermalVoltage(double tempC)
{
    return 8.617333e-5 * (tempC + 273.15);
}

} // namespace

LeakageModel::LeakageModel(const LeakageParams &params) : params_(params)
{
    // Normalise the T^2 * exp(...) kernel so a variation-free core at
    // the calibration corner emits exactly the anchor wattage.
    const double tRefK = params_.refTempC + 273.15;
    const double arg = (-params_.nominalVth +
                        params_.dibl * params_.nominalVdd) /
        (params_.slopeFactor * thermalVoltage(params_.refTempC));
    const double kernel =
        params_.nominalVdd * tRefK * tRefK * std::exp(arg);
    norm_ = params_.nominalCoreSubthresholdW / kernel;
}

std::vector<double>
LeakageModel::sampleCoreVth(const VariationMap &map, const Floorplan &plan,
                            std::size_t coreId) const
{
    const Rect &tile = plan.coreRect(coreId);
    const std::size_t n = params_.samplesPerEdge;
    assert(n >= 1);

    std::vector<double> samples;
    samples.reserve(n * n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const double x = tile.x +
                (static_cast<double>(i) + 0.5) / static_cast<double>(n) *
                    tile.w;
            const double y = tile.y +
                (static_cast<double>(j) + 0.5) / static_cast<double>(n) *
                    tile.h;
            samples.push_back(map.vthAt(x, y));
        }
    }
    return samples;
}

double
LeakageModel::corePower(const VariationMap &map, const Floorplan &plan,
                        std::size_t coreId, double v, double tempC,
                        double vthShift) const
{
    return corePowerSampled(sampleCoreVth(map, plan, coreId),
                            map.vthSigmaRandom(), v, tempC, vthShift);
}

CoreLeakageKernel
LeakageModel::coreKernel(const std::vector<double> &vthSamples,
                         double sigmaRandom, double tempC,
                         double vthShift) const
{
    const std::size_t n = vthSamples.size();
    const double nvt = params_.slopeFactor * thermalVoltage(tempC);
    const double dVth =
        params_.vthTempCoeff * (tempC - params_.refTempC);

    // One contiguous sweep of x_i = -(vth_i + shift - dVth(T))/(n vT).
    // Its exps give A_c = sum exp(x_i) and, since n vT is proportional
    // to T, dx_i/dT = c/(n vT) - x_i/T gives
    // dA_c/dT = c·A_c/(n vT) - sum x_i exp(x_i) / T.
    static thread_local std::vector<double> args;
    static thread_local std::vector<double> expValues;
    args.resize(n);
    expValues.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        args[i] = -((vthSamples[i] + vthShift) - dVth) / nvt;
    simd::expSweep(args.data(), expValues.data(), n);
    double sum = 0.0;
    double moment = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += expValues[i];
        moment += args[i] * expValues[i];
    }

    // Analytic fold of the per-transistor random component:
    // E[exp(dV/(n vT))] = exp(sigma^2 / (2 (n vT)^2)).
    const double sigma2 = sigmaRandom * sigmaRandom / (nvt * nvt);
    const double tK = tempC + 273.15;
    const double pref = std::exp(sigma2 / 2.0) * norm_ * tK * tK /
        static_cast<double>(n);
    CoreLeakageKernel kernel;
    kernel.scale = pref * sum;
    // d ln(randomBoost · T²)/dT = (2 - sigma²/(n vT)²) / T.
    kernel.dScale = kernel.scale * (2.0 - sigma2) / tK +
        pref * (params_.vthTempCoeff * sum / nvt - moment / tK);
    kernel.invNvt = 1.0 / nvt;
    kernel.tempK = tK;
    return kernel;
}

double
LeakageModel::corePowerAt(const CoreLeakageKernel &kernel, double v,
                          double *dPdT) const
{
    const double diblArg = params_.dibl * v * kernel.invNvt;
    const double perScale = v * std::exp(diblArg);
    // d(1/(n vT))/dT = -1/(n vT · T).
    if (dPdT != nullptr)
        *dPdT = perScale *
            (kernel.dScale - kernel.scale * diblArg / kernel.tempK);
    // Gate (tunnelling) leakage falls very steeply with voltage;
    // model it as V^4 (between the V^4-V^5 dependence of thin-oxide
    // tunnelling models).
    const double vr = v / params_.nominalVdd;
    const double gate = params_.nominalCoreGateW * vr * vr * vr * vr;

    return kernel.scale * perScale + gate;
}

double
LeakageModel::l2BlockPower(const VariationMap &map, const Floorplan &plan,
                           std::size_t l2Index, double v, double tempC,
                           double *dPdT) const
{
    const std::size_t blockIdx = plan.l2Blocks().at(l2Index);
    const Rect &r = plan.blocks()[blockIdx].rect;

    // Scale the L2 anchor wattage by the subthreshold kernel
    // norm·V·T²·exp(x), x = (-vth(T) + eta·V)/(n vT), at the block
    // centre's Vth over its value at the calibration corner (the core
    // anchor wattage); L2 arrays use high-Vth cells, which the
    // (smaller) anchor wattage reflects.
    const double nvt = params_.slopeFactor * thermalVoltage(tempC);
    const double x = (-(map.vthAt(r.cx(), r.cy()) -
                        params_.vthTempCoeff * (tempC - params_.refTempC)) +
                      params_.dibl * v) / nvt;
    const double tK = tempC + 273.15;
    const double power = params_.nominalL2BlockW /
        params_.nominalCoreSubthresholdW * norm_ * v * tK * tK * std::exp(x);
    // d ln(T² exp(x))/dT = (2 - x + c·T/(n vT)) / T, since n vT ∝ T.
    if (dPdT != nullptr)
        *dPdT = power * (2.0 - x + params_.vthTempCoeff * tK / nvt) / tK;
    return power;
}

} // namespace varsched
