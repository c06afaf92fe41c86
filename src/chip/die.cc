#include "chip/die.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "runtime/metrics.hh"

namespace varsched
{

namespace
{

/** Construct the variation map for a die from its seed. */
VariationMap
makeMap(const DieParams &params, std::uint64_t dieSeed)
{
    Rng rng(dieSeed);
    return generateVariationMap(params.variation, rng);
}

} // namespace

Die::Die(const DieParams &params, std::uint64_t dieSeed)
    : params_(params), seed_(dieSeed),
      plan_(params.numCores, params.dieAreaMm2),
      map_(makeMap(params, dieSeed)), leakModel_(params.leakage),
      dynModel_(params.dynamic), thermalModel_(plan_, params.thermal)
{
    assert(!params_.voltageLevels.empty());
    assert(std::is_sorted(params_.voltageLevels.begin(),
                          params_.voltageLevels.end()));

    // Per-core path population; the path-sampling stream is forked
    // from the die seed so cores are deterministic and independent.
    Rng pathRng = Rng(dieSeed).fork(0xC0DE);
    timing_.reserve(numCores());
    for (std::size_t c = 0; c < numCores(); ++c) {
        timing_.push_back(buildCoreTiming(map_, plan_, c, pathRng,
                                          params_.delay,
                                          params_.critPath));
    }

    // Adaptive Body Bias (optional): forward-bias slow cores until
    // they close abbStrength of their frequency deficit against the
    // die's median core (or run out of bias range). Fast cores are
    // left alone — slowing them would waste performance, so the
    // leakage of the forward-biased cores is a pure cost.
    vthBias_.assign(numCores(), 0.0);
    if (params_.abbStrength > 0.0) {
        const double binTemp = params_.critPath.binTempC;
        const double vNom = params_.critPath.nominalVdd;
        std::vector<double> fmax(numCores());
        for (std::size_t c = 0; c < numCores(); ++c)
            fmax[c] = timing_[c].fmax(vNom, binTemp);
        std::vector<double> sorted = fmax;
        std::nth_element(sorted.begin(),
                         sorted.begin() + sorted.size() / 2,
                         sorted.end());
        const double median = sorted[sorted.size() / 2];

        for (std::size_t c = 0; c < numCores(); ++c) {
            if (fmax[c] >= median)
                continue;
            const double target = fmax[c] +
                params_.abbStrength * (median - fmax[c]);
            // Bisection on the forward bias (Vth reduction).
            double lo = 0.0, hi = params_.abbMaxBiasV;
            for (int iter = 0; iter < 24; ++iter) {
                const double mid = (lo + hi) / 2.0;
                timing_[c].shiftVth(-mid);
                const double f = timing_[c].fmax(vNom, binTemp);
                timing_[c].shiftVth(mid);
                if (f < target)
                    lo = mid;
                else
                    hi = mid;
            }
            vthBias_[c] = -hi;
            timing_[c].shiftVth(vthBias_[c]);
        }
    }

    // Sample the systematic Vth field at every core's leakage
    // integration points once; the tick loop queries leakage millions
    // of times per run and folds these instead of re-interpolating.
    vthSamples_.reserve(numCores());
    leakTables_.reserve(numCores());
    for (std::size_t c = 0; c < numCores(); ++c) {
        vthSamples_.push_back(leakModel_.sampleCoreVth(map_, plan_, c));
        leakTables_.push_back(leakModel_.fitKernel(
            vthSamples_[c], map_.vthSigmaRandom(), vthBias_[c]));
    }

    // Bin the (voltage, frequency) table at the binning temperature
    // and quantise down to the frequency step (a core is never clocked
    // above what it sustains when hot).
    freqTable_.assign(numCores(),
                      std::vector<double>(numLevels(), 0.0));
    staticTable_.assign(numCores(),
                        std::vector<double>(numLevels(), 0.0));
    for (std::size_t c = 0; c < numCores(); ++c) {
        const CoreLeakageKernel kernel =
            leakageKernel(c, params_.leakage.refTempC);
        for (std::size_t l = 0; l < numLevels(); ++l) {
            const double v = voltage(l);
            const double raw =
                timing_[c].fmax(v, params_.critPath.binTempC);
            freqTable_[c][l] =
                std::floor(raw / params_.freqStepHz) * params_.freqStepHz;
            staticTable_[c][l] = leakModel_.corePowerAt(kernel, v);
        }
    }
}

CoreLeakageKernel
Die::leakageKernel(std::size_t core, double tempC) const
{
    if (CoreLeakageTable::covers(tempC))
        return leakModel_.tableKernel(leakTables_[core], tempC);
    static metrics::Counter &sweeps =
        metrics::Registry::global().counter("power.leak_kernel.sweeps");
    sweeps.add();
    return leakModel_.coreKernel(vthSamples_[core], map_.vthSigmaRandom(),
                                 tempC, vthBias_[core]);
}

double
Die::uniformFreq() const
{
    double f = freqTable_[0][maxLevel()];
    for (std::size_t c = 1; c < numCores(); ++c)
        f = std::min(f, freqTable_[c][maxLevel()]);
    return f;
}

std::vector<Die>
manufactureBatch(const DieParams &params, std::size_t count,
                 std::uint64_t batchSeed)
{
    std::vector<Die> dies;
    dies.reserve(count);
    Rng seeder(batchSeed);
    for (std::size_t i = 0; i < count; ++i)
        dies.emplace_back(params, seeder.next());
    return dies;
}

} // namespace varsched
