/**
 * @file
 * Extension (paper Section 5.1 / Kim et al. [16]): voltage-regulator
 * transition overheads. The paper conservatively assumes Xscale-era
 * (off-chip regulator) transition speeds; Kim et al.'s on-chip
 * regulators switch orders of magnitude faster. This bench sweeps the
 * per-step transition time and the LinOpt invocation interval to show
 * when transition cost starts to eat the DVFS gains — the case for
 * on-chip regulators if one wants very fine-grained power management.
 */

#include <cstdio>

#include "bench/common.hh"

using namespace varsched;

int
main()
{
    bench::banner("Extension: voltage transition overhead vs DVFS "
                  "granularity",
                  "on-chip regulators (Kim et al.) enable fine-grained "
                  "DVFS; off-chip ones tax it");

    BatchConfig batch = defaultBatch(4, 3);
    bench::describeBatch(batch);

    const double transitionsUs[] = {0.0, 0.1, 10.0, 100.0};
    const double intervalsMs[] = {1.0, 10.0, 100.0};

    std::printf("%-18s", "per-step us \\ ivl");
    for (double ivl : intervalsMs)
        std::printf(" %11.0f ms", ivl);
    std::printf("   (relative MIPS; 10 ms / 0 us = 1.0)\n");

    auto runCell = [&](double us, double ivl) {
        SystemConfig config;
        config.sched = SchedAlgo::VarFAppIPC;
        config.pm = PmKind::LinOpt;
        config.ptargetW = 75.0;
        config.dvfsIntervalMs = ivl;
        config.durationMs = 200.0;
        config.transitionUsPerStep = us;
        const auto r = bench::runBatch(batch, 20, {config});
        return r.absolute[0].mips.mean();
    };

    // Baseline: zero-cost transitions at the paper's 10 ms interval.
    const double baseline = runCell(0.0, 10.0);
    for (double us : transitionsUs) {
        std::printf("%-18.1f", us);
        for (double ivl : intervalsMs)
            std::printf(" %14.3f", runCell(us, ivl) / baseline);
        std::printf("\n");
    }
    std::printf("\n(reading: with 100 us off-chip transitions, a 1 ms "
                "DVFS interval loses real\nthroughput; 0.1 us on-chip "
                "regulators make even 1 ms intervals free)\n");
    return 0;
}
