/**
 * @file
 * Fig 6 of the paper: core power vs frequency for the highest- and
 * lowest-frequency cores of one sample die, running bzip2, as the
 * voltage sweeps 0.6-1.0 V. Axes are normalised to the MaxF core at
 * 1 V.
 *
 * Paper: the curves cross — below a crossover frequency (~0.74 in
 * their sample) the MinF core is more power-efficient; above it only
 * the MaxF core can deliver the frequency, and does so with less
 * power than MinF would need.
 */

#include <algorithm>
#include <cstdio>

#include "bench/common.hh"
#include "chip/sensors.hh"

using namespace varsched;

int
main()
{
    bench::banner("Fig 6: power vs frequency for the MaxF and MinF "
                  "cores (bzip2, Vdd 0.6-1.0 V)",
                  "curves cross near 0.74 of MaxF's top frequency");

    // "One sample die": pick the die whose fastest/slowest-core
    // frequency ratio is the median of a small batch, so the sample
    // is representative rather than an outlier. A specific die can
    // be forced with VARSCHED_DIE_SEED.
    DieParams params;
    std::uint64_t seed = envSize("VARSCHED_DIE_SEED", 0);
    if (seed == 0) {
        Rng seeder(2026);
        std::vector<std::pair<double, std::uint64_t>> ratios;
        for (int d = 0; d < 15; ++d) {
            const std::uint64_t s = seeder.next();
            const Die probe(params, s);
            double lo = 1e300, hi = 0.0;
            for (std::size_t c = 0; c < probe.numCores(); ++c) {
                lo = std::min(lo, probe.maxFreq(c));
                hi = std::max(hi, probe.maxFreq(c));
            }
            ratios.emplace_back(hi / lo, s);
        }
        std::sort(ratios.begin(), ratios.end());
        seed = ratios[ratios.size() / 2].second;
    }
    const Die die(params, seed);
    ChipEvaluator evaluator(die);

    std::size_t maxFCore = 0, minFCore = 0;
    for (std::size_t c = 1; c < die.numCores(); ++c) {
        if (die.maxFreq(c) > die.maxFreq(maxFCore))
            maxFCore = c;
        if (die.maxFreq(c) < die.maxFreq(minFCore))
            minFCore = c;
    }

    const AppProfile &bzip2 = findApplication("bzip2");
    auto corePowerAt = [&](std::size_t core, std::size_t level) {
        std::vector<CoreWork> work(die.numCores());
        work[core].app = &bzip2;
        std::vector<int> levels(die.numCores(),
                                static_cast<int>(level));
        return evaluator.evaluate(work, levels).corePowerW[core];
    };

    const double fNorm = die.freqAt(maxFCore, die.maxLevel());
    const double pNorm = corePowerAt(maxFCore, die.maxLevel());

    std::printf("normalisation: MaxF core C%zu at 1 V = "
                "(%.2f GHz, %.2f W); MinF core is C%zu\n\n",
                maxFCore + 1, fNorm / 1e9, pNorm, minFCore + 1);
    std::printf("%-8s %12s %12s %12s %12s\n", "Vdd", "MaxF f/f0",
                "MaxF P/P0", "MinF f/f0", "MinF P/P0");
    for (std::size_t l = 0; l < die.numLevels(); ++l) {
        std::printf("%-8.2f %12.3f %12.3f %12.3f %12.3f\n",
                    die.voltage(l), die.freqAt(maxFCore, l) / fNorm,
                    corePowerAt(maxFCore, l) / pNorm,
                    die.freqAt(minFCore, l) / fNorm,
                    corePowerAt(minFCore, l) / pNorm);
    }

    // Locate the crossover: the highest frequency MinF can deliver
    // with less power than MaxF needs for the same frequency
    // (interpolating MaxF's curve at MinF's frequency points).
    double crossover = 0.0;
    for (std::size_t l = 0; l < die.numLevels(); ++l) {
        const double f = die.freqAt(minFCore, l);
        // Find MaxF's power at this frequency by scanning its curve.
        double pMaxF = 1e300;
        for (std::size_t m = 0; m + 1 < die.numLevels(); ++m) {
            const double f0 = die.freqAt(maxFCore, m);
            const double f1 = die.freqAt(maxFCore, m + 1);
            if (f >= f0 && f <= f1 && f1 > f0) {
                const double t = (f - f0) / (f1 - f0);
                pMaxF = corePowerAt(maxFCore, m) * (1 - t) +
                    corePowerAt(maxFCore, m + 1) * t;
            }
        }
        if (f <= die.freqAt(maxFCore, 0))
            pMaxF = corePowerAt(maxFCore, 0); // below MaxF's range
        if (corePowerAt(minFCore, l) < pMaxF)
            crossover = std::max(crossover, f / fNorm);
    }
    std::printf("\ncrossover: MinF is the more efficient core below "
                "%.2f of MaxF's top frequency (paper: ~0.74)\n",
                crossover);
    return 0;
}
