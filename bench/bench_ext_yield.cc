/**
 * @file
 * Extension: frequency-binning yield analysis. For a lot of dies,
 * what fraction "bins" at each chip frequency (UniFreq: the slowest
 * core sets the clock) under a chip-power limit — and how the yield
 * curve moves with the Vth sigma/mu of the process and with Adaptive
 * Body Bias. The manufacturer's view of the Fig 4/5 variation data.
 */

#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/common.hh"
#include "bench/gridpoints.hh"
#include "chip/die.hh"
#include "solver/stats.hh"

using namespace varsched;

namespace
{

/** Fraction of the lot whose UniFreq clock meets each target. */
void
yieldRow(double sigma, double abb, const std::vector<std::uint64_t> &seeds,
         const std::vector<double> &targetsGHz, double powerLimitW)
{
    DieParams params;
    params.variation.vthSigmaOverMu = sigma;
    params.abbStrength = abb;

    const auto dies = runDiePopulation(
        params, seeds, [](const Die &die, std::size_t) {
            return bench::dieYield(die);
        }).results;

    const std::size_t lot = seeds.size();
    std::vector<std::size_t> meets(targetsGHz.size(), 0);
    std::size_t powerOk = 0;
    Summary clock;
    for (const bench::DieYield &y : dies) {
        clock.add(y.clockHz);
        const bool power = y.staticW <= powerLimitW;
        powerOk += power;
        for (std::size_t t = 0; t < targetsGHz.size(); ++t) {
            if (power && y.clockHz >= targetsGHz[t] * 1e9)
                ++meets[t];
        }
    }

    std::printf("%-8.2f %-5.1f %9.2f |", sigma, abb,
                clock.mean() / 1e9);
    for (std::size_t t = 0; t < targetsGHz.size(); ++t) {
        std::printf(" %7.0f%%",
                    100.0 * static_cast<double>(meets[t]) /
                        static_cast<double>(lot));
    }
    std::printf(" | %6.0f%%\n",
                100.0 * static_cast<double>(powerOk) /
                    static_cast<double>(lot));
}

} // namespace

int
main()
{
    bench::banner("Extension: frequency-binning yield vs sigma/mu "
                  "and ABB",
                  "manufacturer's view of Fig 4/5; not a paper "
                  "figure");

    const std::size_t lot = envSize("VARSCHED_DIES", 80);
    const double powerLimitW = 120.0; // static power screen
    const std::vector<double> targets = {2.2, 2.5, 2.8, 3.1};
    // One lot of seeds shared by every row: each row re-manufactures
    // the same wafer positions under different process settings.
    const auto seeds = diePopulationSeeds(lot, 777);

    std::printf("[%zu dies per row; static-power screen %.0f W]\n\n",
                lot, powerLimitW);
    std::printf("%-8s %-5s %9s | %8s %8s %8s %8s | %7s\n", "sigma",
                "ABB", "clock", ">=2.2G", ">=2.5G", ">=2.8G",
                ">=3.1G", "pwr ok");
    for (double sigma : {0.03, 0.06, 0.09, 0.12}) {
        yieldRow(sigma, 0.0, seeds, targets, powerLimitW);
    }
    std::printf("\n");
    for (double abb : {0.0, 0.5, 1.0}) {
        yieldRow(0.12, abb, seeds, targets, powerLimitW);
    }
    std::printf("\n(variation costs frequency bins; ABB buys bins "
                "back but squeezes the power screen)\n");
    return 0;
}
