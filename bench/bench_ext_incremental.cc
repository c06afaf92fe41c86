/**
 * @file
 * Incremental-evaluation guard bench (extension, PR 3): runs one
 * Fig 13-style system batch twice — warmStartThermal on and off —
 * and fails when any paper-facing metric diverges beyond tolerance.
 * The warm- and cold-seeded leakage-temperature settles stop within
 * the same 0.01 C residual of one fixed point, so the run-averaged
 * metrics must agree to well under 0.5%; a larger gap
 * means the warm start changed the physics, not just the iteration
 * count. That the parallel runner is bit-identical to the serial path
 * is checked by BatchDeterminism.BitIdenticalAcrossWorkerCounts.
 */

#include <cmath>
#include <cstdio>

#include "bench/common.hh"

using namespace varsched;

namespace
{

/** Relative deviation |a - b| / max(|a|, tiny). */
double
relDiff(double a, double b)
{
    const double scale = std::max(std::abs(a), 1e-12);
    return std::abs(a - b) / scale;
}

} // namespace

int
main()
{
    bench::banner("Incremental evaluation guard: warmStartThermal "
                  "on vs off",
                  "extension - warm start must keep every metric "
                  "within tolerance of the cold fixed point");

    BatchConfig batch = defaultBatch(2, 2);
    bench::describeBatch(batch);

    const std::size_t threads = 8;
    std::vector<SystemConfig> configs(2);
    configs[0].sched = SchedAlgo::Random;
    configs[0].pm = PmKind::FoxtonStar;
    configs[1].sched = SchedAlgo::VarFAppIPC;
    configs[1].pm = PmKind::LinOpt;
    for (auto &c : configs) {
        c.ptargetW = 75.0 * static_cast<double>(threads) / 20.0;
        c.durationMs = 100.0;
        c.sannEvals = envSize("VARSCHED_SANN_EVALS", 2000);
    }

    std::vector<SystemConfig> cold = configs;
    for (auto &c : configs)
        c.warmStartThermal = true;
    for (auto &c : cold)
        c.warmStartThermal = false;

    const auto warmRes = runBatch(batch, threads, configs);
    const auto coldRes = runBatch(batch, threads, cold);

    // The settle's residual is 0.01 C on ~70 C temperatures;
    // after averaging over hundreds of ticks the metric-level impact
    // is far below the paper-fidelity bar of 0.5%.
    const double tol = 5e-3;
    int bad = 0;
    for (std::size_t k = 0; k < configs.size(); ++k) {
        const auto &w = warmRes.absolute[k];
        const auto &c = coldRes.absolute[k];
        const struct
        {
            const char *name;
            double warm, cold;
        } rows[] = {
            {"mips", w.mips.mean(), c.mips.mean()},
            {"weightedIpc", w.weightedIpc.mean(),
             c.weightedIpc.mean()},
            {"powerW", w.powerW.mean(), c.powerW.mean()},
            {"freqHz", w.freqHz.mean(), c.freqHz.mean()},
            {"ed2", w.ed2.mean(), c.ed2.mean()},
            {"weightedEd2", w.weightedEd2.mean(),
             c.weightedEd2.mean()},
        };
        for (const auto &row : rows) {
            const double d = relDiff(row.warm, row.cold);
            if (d > tol) {
                std::fprintf(stderr,
                             "config %zu %s: warm %.9g vs cold %.9g "
                             "(rel diff %.3g > %.3g)\n",
                             k, row.name, row.warm, row.cold, d, tol);
                ++bad;
            }
        }
    }

    std::printf("config 0 (Foxton*): warm %.4f MIPS vs cold %.4f "
                "MIPS, warm %.4f W vs cold %.4f W\n",
                warmRes.absolute[0].mips.mean(),
                coldRes.absolute[0].mips.mean(),
                warmRes.absolute[0].powerW.mean(),
                coldRes.absolute[0].powerW.mean());
    std::printf("config 1 (LinOpt):  warm %.4f MIPS vs cold %.4f "
                "MIPS, warm %.4f W vs cold %.4f W\n",
                warmRes.absolute[1].mips.mean(),
                coldRes.absolute[1].mips.mean(),
                warmRes.absolute[1].powerW.mean(),
                coldRes.absolute[1].powerW.mean());
    if (bad > 0) {
        std::fprintf(stderr,
                     "%d metric(s) diverged between warm and cold "
                     "thermal starts\n",
                     bad);
        return 1;
    }
    std::printf("\nall metrics agree within %.2g relative "
                "tolerance\n", 5e-3);
    return 0;
}
