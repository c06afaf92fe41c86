/**
 * @file
 * Ablation: thermal granularity. The system loop models one thermal
 * node per core (plus L2/package); HotSpot-style fine grids resolve
 * each functional unit. This bench runs both models on the same
 * full-load power map and reports, per application class, how much
 * hotter the worst unit runs than the core average — the hotspot
 * error a per-core model carries. (The frequency-binning temperature
 * of 95 C includes margin for exactly this.)
 */

#include <array>
#include <cstdio>

#include "bench/common.hh"
#include "chip/die.hh"
#include "thermal/finegrid.hh"

using namespace varsched;

int
main()
{
    bench::banner("Ablation: per-core vs per-unit thermal granularity",
                  "quantifies the within-core hotspot a per-core "
                  "model hides; not a paper figure");

    DieParams params;
    const Die die(params, 99);
    const Floorplan &plan = die.floorplan();
    FineThermalModel fine(plan, params.thermal);
    ThermalModel coarse(plan, params.thermal);
    DynamicPowerModel dyn(params.dynamic);

    // Full load: all 20 cores run the same application at (1 V, its
    // binned fmax); leakage at a representative hot temperature.
    std::printf("%-8s | %10s %10s %10s | %10s\n", "app",
                "coarse (C)", "fine mean", "fine hot", "hotspot dT");
    for (const auto *name : {"vortex", "applu", "mcf", "crafty"}) {
        const AppProfile &app = findApplication(name);
        const auto act =
            dyn.calibrateActivity(app.activityShape, app.dynPowerW);

        std::vector<std::array<double, kNumCoreUnits>> unitW(
            plan.numCores());
        std::vector<double> coreLeak(plan.numCores());
        std::vector<double> coreTotal(plan.numCores());
        for (std::size_t c = 0; c < plan.numCores(); ++c) {
            const double f = die.maxFreq(c);
            double dynSum = 0.0;
            for (std::size_t u = 0; u < kNumCoreUnits; ++u) {
                unitW[c][u] = dyn.unitPower(static_cast<CoreUnit>(u),
                                            act[u], 1.0, f);
                dynSum += unitW[c][u];
            }
            // Clock tree spreads like area: fold it into units
            // proportionally so totals match corePower().
            const double clockW = dyn.corePower(act, 1.0, f) - dynSum;
            for (std::size_t u = 0; u < kNumCoreUnits; ++u) {
                const std::size_t idx = plan.coreBlocks(c)[u];
                unitW[c][u] += clockW *
                    plan.blocks()[idx].rect.area() /
                    plan.coreRect(c).area();
            }
            coreLeak[c] = die.leakagePower(c, 1.0, 85.0);
            coreTotal[c] = dyn.corePower(act, 1.0, f) + coreLeak[c];
        }
        const std::vector<double> l2W(2, 2.5);

        const auto fineResult = fine.solve(
            buildBlockPowerMap(plan, unitW, coreLeak, l2W));
        const auto coarseResult = coarse.solve(coreTotal, l2W);

        // Hottest core by the coarse model; its fine-grid view.
        std::size_t hotCore = 0;
        for (std::size_t c = 1; c < plan.numCores(); ++c) {
            if (coarseResult.coreTempC[c] >
                coarseResult.coreTempC[hotCore])
                hotCore = c;
        }
        const double coarseT = coarseResult.coreTempC[hotCore];
        const double fineMean = fineResult.coreMeanC(plan, hotCore);
        const double fineHot = fineResult.coreHotspotC(plan, hotCore);
        std::printf("%-8s | %10.1f %10.1f %10.1f | %10.1f\n", name,
                    coarseT, fineMean, fineHot, fineHot - fineMean);
    }
    std::printf("\n(hotspot dT is what the per-core model underesti"
                "mates; FP-heavy and cache-heavy\napps concentrate "
                "power differently across the core)\n");
    return 0;
}
