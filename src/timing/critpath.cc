#include "timing/critpath.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace varsched
{

CoreTiming::CoreTiming(std::vector<Path> paths,
                       const DelayParams &delayParams,
                       const CritPathParams &cpParams, double vthNominal,
                       double leffNominal)
    : delayParams_(delayParams)
{
    assert(!paths.empty());
    vth_.reserve(paths.size());
    leff_.reserve(paths.size());
    for (const Path &p : paths) {
        vth_.push_back(p.vthEff);
        leff_.push_back(p.leffEff);
    }
    // Calibrate: a variation-free path at (nominalVdd, binTempC)
    // corresponds to one cycle of the nominal frequency, so delays in
    // relative units convert to seconds through this scale.
    const double nomDelay = gateDelay(leffNominal, vthNominal,
                                      cpParams.nominalVdd,
                                      cpParams.binTempC, delayParams_);
    delayScale_ = 1.0 / (cpParams.nominalFreqHz * nomDelay);
}

void
CoreTiming::shiftVth(double deltaV)
{
    for (double &vth : vth_)
        vth += deltaV;
}

std::vector<CoreTiming::Path>
CoreTiming::paths() const
{
    std::vector<Path> out;
    out.reserve(vth_.size());
    for (std::size_t i = 0; i < vth_.size(); ++i)
        out.push_back(Path{vth_[i], leff_[i]});
    return out;
}

double
CoreTiming::maxDelay(double v, double tempC) const
{
    // Per-call scratch for the delay sweep. thread_local rather than a
    // mutable member: a manufactured Die is shared read-only across
    // the batch runner's workers, so maxDelay must stay re-entrant.
    static thread_local std::vector<double> delays;
    const std::size_t n = vth_.size();
    delays.resize(n);
    gateDelayBatch(leff_.data(), vth_.data(), n, v, tempC, delayParams_,
                   delays.data());
    double worst = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        worst = std::max(worst, delays[i] * delayScale_);
    return worst;
}

double
CoreTiming::fmax(double v, double tempC) const
{
    const double d = maxDelay(v, tempC);
    return d > 0.0 ? 1.0 / d : 0.0;
}

CoreTiming
buildCoreTiming(const VariationMap &map, const Floorplan &plan,
                std::size_t coreId, Rng &rng,
                const DelayParams &delayParams,
                const CritPathParams &cpParams)
{
    const Rect &tile = plan.coreRect(coreId);
    std::vector<CoreTiming::Path> paths;
    paths.reserve(cpParams.logicPathsPerCore + cpParams.sramPathsPerCore);

    const double vthSigRan = map.vthSigmaRandom();
    const double leffSigRan = map.leffSigmaRandom();
    const double gateCount = static_cast<double>(cpParams.gatesPerPath);

    // Logic paths: random component averages over the gates in series.
    for (std::size_t i = 0; i < cpParams.logicPathsPerCore; ++i) {
        const double x = tile.x + rng.uniform() * tile.w;
        const double y = tile.y + rng.uniform() * tile.h;
        CoreTiming::Path p;
        p.vthEff = map.vthAt(x, y) +
            rng.normal(0.0, vthSigRan / std::sqrt(gateCount));
        p.leffEff = map.leffAt(x, y) +
            rng.normal(0.0, leffSigRan / std::sqrt(gateCount));
        p.leffEff = std::max(kMinLeff, p.leffEff);
        paths.push_back(p);
    }

    // SRAM paths: the slowest cell dominates, so add the expected
    // maximum of the random component over the cell population
    // (Gumbel location, sqrt(2 ln N) sigmas) plus its fluctuation.
    const double worstShift =
        std::sqrt(2.0 * std::log(std::max(2.0, cpParams.sramCellsPerPath)));
    const double worstJitterSigma =
        1.0 / std::max(1.0, worstShift); // Gumbel scale ~ sigma/shift
    for (std::size_t i = 0; i < cpParams.sramPathsPerCore; ++i) {
        const double x = tile.x + rng.uniform() * tile.w;
        const double y = tile.y + rng.uniform() * tile.h;
        CoreTiming::Path p;
        p.vthEff = map.vthAt(x, y) +
            vthSigRan * (worstShift +
                         worstJitterSigma * rng.normal());
        p.leffEff = map.leffAt(x, y) +
            leffSigRan * rng.normal();
        p.leffEff = std::max(kMinLeff, p.leffEff);
        paths.push_back(p);
    }

    return CoreTiming(std::move(paths), delayParams, cpParams,
                      map.params().vthMean, map.params().leffMean);
}

double
nominalPathDelay(const DelayParams &delayParams,
                 const CritPathParams &cpParams, double vthMean,
                 double leffMean)
{
    return gateDelay(leffMean, vthMean, cpParams.nominalVdd,
                     cpParams.binTempC, delayParams);
}

} // namespace varsched
