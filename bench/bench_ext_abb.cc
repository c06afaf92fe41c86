/**
 * @file
 * Extension (paper's Related Work, Humenay et al.): Adaptive Body
 * Bias. A per-core static body bias cancels part of each core's mean
 * systematic Vth offset: forward bias speeds up slow cores (at a
 * leakage cost), reverse bias trims fast cores' leakage (with a small
 * speed cost). Humenay et al. observe that ABB reduces *frequency*
 * variation at the price of *power* variation — this bench reproduces
 * that trade-off on our model, plus its effect on UniFreq chips
 * (which benefit most, since the slowest core sets the clock).
 */

#include <algorithm>
#include <cstdio>

#include "bench/common.hh"
#include "chip/die.hh"
#include "solver/stats.hh"

using namespace varsched;

namespace
{

/** Per-die ABB metrics; folded in die order after the fan-out. */
struct DieAbb
{
    double freqRatio = 0.0;
    double powerRatio = 0.0;
    double uniFreqHz = 0.0;
    double staticW = 0.0;

    bool operator==(const DieAbb &) const = default;
};

} // namespace

int
main()
{
    bench::banner("Extension: Adaptive Body Bias (Humenay et al.)",
                  "ABB reduces frequency variation at the cost of "
                  "power variation");

    const std::size_t numDies = envSize("VARSCHED_DIES", 40);
    std::printf("[%zu dies per ABB setting]\n\n", numDies);

    std::printf("%-8s %12s %12s %14s %14s\n", "ABB", "freq ratio",
                "power ratio", "UniFreq (GHz)", "static (W)");
    const auto seeds = diePopulationSeeds(numDies, 2026);
    for (double strength : {0.0, 0.5, 1.0}) {
        DieParams params;
        params.abbStrength = strength;

        const auto dies = runDiePopulation(
            params, seeds, [](const Die &die, std::size_t) {
                double fLo = 1e300, fHi = 0.0;
                double pLo = 1e300, pHi = 0.0;
                DieAbb a;
                for (std::size_t c = 0; c < die.numCores(); ++c) {
                    fLo = std::min(fLo, die.maxFreq(c));
                    fHi = std::max(fHi, die.maxFreq(c));
                    const double p =
                        die.staticPowerAt(c, die.maxLevel());
                    pLo = std::min(pLo, p);
                    pHi = std::max(pHi, p);
                    a.staticW += p;
                }
                a.freqRatio = fHi / fLo;
                a.powerRatio = pHi / pLo;
                a.uniFreqHz = die.uniformFreq();
                return a;
            }).results;

        Summary freqRatio, powerRatio, uniFreq, staticTotal;
        for (const DieAbb &a : dies) {
            freqRatio.add(a.freqRatio);
            powerRatio.add(a.powerRatio);
            uniFreq.add(a.uniFreqHz);
            staticTotal.add(a.staticW);
        }
        std::printf("%-8.1f %12.3f %12.3f %14.2f %14.1f\n", strength,
                    freqRatio.mean(), powerRatio.mean(),
                    uniFreq.mean() / 1e9, staticTotal.mean());
    }
    std::printf("\n(freq ratio should fall and power ratio rise with "
                "ABB strength; the UniFreq\nclock — set by the slowest "
                "core — rises as forward bias rescues slow cores)\n");
    return 0;
}
