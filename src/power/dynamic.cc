#include "power/dynamic.hh"

#include <algorithm>
#include <cassert>

#include "runtime/simd.hh"

namespace varsched
{

DynamicPowerModel::DynamicPowerModel(const DynamicPowerParams &params)
    : params_(params)
{
}

double
DynamicPowerModel::unitPower(CoreUnit unit, double activity, double v,
                             double f) const
{
    return scaleToPoint(
        params_.unitMaxW[static_cast<std::size_t>(unit)] * activity, v, f);
}

double
DynamicPowerModel::corePower(const ActivityVector &activity, double v,
                             double f) const
{
    double sum = params_.clockTreeW;
    if (simd::enabled()) {
        sum += simd::dot(params_.unitMaxW.data(), activity.data(),
                         kNumCoreUnits);
    } else {
        for (std::size_t u = 0; u < kNumCoreUnits; ++u)
            sum += params_.unitMaxW[u] * activity[u];
    }
    return scaleToPoint(sum, v, f);
}

double
DynamicPowerModel::scaleToPoint(double nominalW, double v, double f) const
{
    const double vScale = (v * v) /
        (params_.nominalVdd * params_.nominalVdd);
    const double fScale = f / params_.nominalFreqHz;
    return nominalW * vScale * fScale;
}

double
DynamicPowerModel::l2Power(double accessesPerSec) const
{
    return params_.l2AccessEnergyJ * accessesPerSec;
}

ActivityVector
DynamicPowerModel::calibrateActivity(const ActivityVector &shape,
                                     double targetW) const
{
    double shapeW = 0.0;
    if (simd::enabled()) {
        shapeW = simd::dot(params_.unitMaxW.data(), shape.data(),
                           kNumCoreUnits);
    } else {
        for (std::size_t u = 0; u < kNumCoreUnits; ++u)
            shapeW += params_.unitMaxW[u] * shape[u];
    }
    assert(shapeW > 0.0);

    const double s = std::max(0.0, targetW - params_.clockTreeW) / shapeW;
    ActivityVector out;
    for (std::size_t u = 0; u < kNumCoreUnits; ++u)
        out[u] = std::clamp(shape[u] * s, 0.0, 1.0);
    return out;
}

} // namespace varsched
