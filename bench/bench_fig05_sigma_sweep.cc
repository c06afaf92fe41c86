/**
 * @file
 * Fig 5 of the paper: average max/min core power (a) and frequency
 * (b) ratios as a function of Vth sigma/mu in {0.03, 0.06, 0.09,
 * 0.12}, over a batch of dies per point.
 *
 * Paper: both ratios grow with sigma/mu; even sigma/mu = 0.06 shows
 * significant variation (power ~1.25, frequency ~1.15 by Fig 5).
 */

#include <algorithm>
#include <cstdio>

#include "bench/common.hh"
#include "bench/gridpoints.hh"
#include "chip/sensors.hh"
#include "solver/stats.hh"

using namespace varsched;

int
main()
{
    bench::banner(
        "Fig 5: power/frequency variation vs Vth sigma/mu",
        "ratios increase with sigma/mu; significant already at 0.06");

    const std::size_t numDies = envSize("VARSCHED_DIES", 60);
    std::printf("[%zu dies per point; override with VARSCHED_DIES]\n\n",
                numDies);

    std::printf("%-10s %14s %14s\n", "sigma/mu", "power ratio",
                "freq ratio");
    const auto seeds = diePopulationSeeds(numDies, 2026);
    for (double sigma : {0.03, 0.06, 0.09, 0.12}) {
        DieParams params;
        params.variation.vthSigmaOverMu = sigma;
        const auto ratios = runDiePopulation(
            params, seeds, [](const Die &die, std::size_t) {
                return bench::coreRatios(die);
            }).results;
        Summary power, freq;
        for (const bench::DieRatios &r : ratios) {
            power.add(r.power);
            freq.add(r.freq);
        }
        std::printf("%-10.2f %14.3f %14.3f\n", sigma, power.mean(),
                    freq.mean());
    }
    std::printf("\n(paper Fig 5: power ~1.1/1.25/1.4/1.55 and freq "
                "~1.07/1.15/1.25/1.33 at 0.03/0.06/0.09/0.12)\n");
    return 0;
}
