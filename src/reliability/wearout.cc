#include "reliability/wearout.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace varsched
{

namespace
{

constexpr double kBoltzmannEvPerK = 8.617333e-5;

} // namespace

WearoutModel::WearoutModel(const WearoutParams &params) : params_(params)
{
}

double
WearoutModel::agingRate(double tempC, double v) const
{
    const double tK = tempC + 273.15;
    const double tRefK = params_.refTempC + 273.15;
    const double thermal = std::exp(params_.activationEnergyEv /
                                    kBoltzmannEvPerK *
                                    (1.0 / tRefK - 1.0 / tK));
    if (v <= 0.0)
        return thermal * 0.05; // gated core: residual thermal stress
    const double voltage =
        std::pow(v / params_.refVdd, params_.voltageExponent);
    return thermal * voltage;
}

WearoutTracker::WearoutTracker(const WearoutModel &model,
                               std::size_t numCores)
    : model_(&model), damageMs_(numCores, 0.0), lastRate_(numCores, 0.0)
{
}

void
WearoutTracker::accumulate(const std::vector<double> &coreTempC,
                           const std::vector<double> &coreVdd,
                           double dtMs)
{
    assert(coreTempC.size() == damageMs_.size());
    assert(coreVdd.size() == damageMs_.size());
    for (std::size_t c = 0; c < damageMs_.size(); ++c)
        lastRate_[c] = model_->agingRate(coreTempC[c], coreVdd[c]);
    repeat(dtMs);
}

void
WearoutTracker::repeat(double dtMs, std::size_t ticks)
{
    for (std::size_t n = 0; n < ticks; ++n) {
        for (std::size_t c = 0; c < damageMs_.size(); ++c)
            damageMs_[c] += lastRate_[c] * dtMs;
        elapsedMs_ += dtMs;
    }
}

std::vector<double>
WearoutTracker::averageRates() const
{
    std::vector<double> rates(damageMs_.size(), 0.0);
    if (elapsedMs_ <= 0.0)
        return rates;
    for (std::size_t c = 0; c < damageMs_.size(); ++c)
        rates[c] = damageMs_[c] / elapsedMs_;
    return rates;
}

double
WearoutTracker::worstRate() const
{
    const auto rates = averageRates();
    return rates.empty() ? 0.0
                         : *std::max_element(rates.begin(), rates.end());
}

double
WearoutTracker::projectedLifetimeYears() const
{
    const double worst = worstRate();
    if (worst <= 0.0)
        return model_->params().nominalLifetimeYears;
    return model_->params().nominalLifetimeYears / worst;
}

} // namespace varsched
