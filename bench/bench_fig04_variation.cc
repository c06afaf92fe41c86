/**
 * @file
 * Fig 4 of the paper: histograms, over a batch of manufactured dies,
 * of (a) the ratio between the most and least power-consuming cores
 * and (b) the ratio between the fastest and slowest cores.
 *
 * Paper: most dies show 40-70% power variation (mean ~1.53x) and
 * 20-50% frequency variation (mean ~1.33x) at Vth sigma/mu = 0.12.
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
        "Fig 4: core-to-core power and frequency variation histograms",
        "power ratio mostly 1.4-1.7 (mean ~1.53); frequency ratio "
        "mostly 1.2-1.5 (mean ~1.33)");

    const std::size_t numDies = envSize("VARSCHED_DIES", 200);
    std::printf("[%zu dies; override with VARSCHED_DIES]\n\n", numDies);

    DieParams params;
    Histogram powerHist(1.2, 2.2, 10);
    Histogram freqHist(1.0, 1.6, 12);
    Summary powerSummary, freqSummary;

    const auto ratios = bench::runDies(
        params, diePopulationSeeds(numDies, 2026),
        [](const Die &die, std::size_t) {
            return bench::coreRatios(die);
        });
    for (const bench::DieRatios &r : ratios) {
        powerHist.add(r.power);
        freqHist.add(r.freq);
        powerSummary.add(r.power);
        freqSummary.add(r.freq);
    }

    std::printf("(a) max/min core power ratio  — mean %.3f "
                "(paper ~1.53)\n%s\n",
                powerSummary.mean(),
                powerHist.toTable("power").c_str());
    std::printf("(b) max/min core frequency ratio — mean %.3f "
                "(paper ~1.33)\n%s\n",
                freqSummary.mean(), freqHist.toTable("freq").c_str());
    return 0;
}
