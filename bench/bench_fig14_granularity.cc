/**
 * @file
 * Fig 14 of the paper: average deviation of chip power from Ptarget
 * as a function of the interval between LinOpt runs (2 s down to
 * 10 ms), for 4- and 20-thread workloads.
 *
 * Paper: deviation falls monotonically as the interval shrinks;
 * under 1% at the 10 ms interval used everywhere else. The deviation
 * is driven by application phase changes between LinOpt runs.
 */

#include <cstdio>

#include "bench/common.hh"

using namespace varsched;

int
main()
{
    bench::banner("Fig 14: power deviation from Ptarget vs LinOpt "
                  "interval",
                  "deviation shrinks with the interval; <1% at 10 ms");

    BatchConfig batch = defaultBatch(4, 2);
    bench::describeBatch(batch);

    const double intervalsMs[] = {2000.0, 1000.0, 500.0, 100.0, 10.0};

    std::printf("%-12s %16s %16s\n", "interval", "4 threads (%)",
                "20 threads (%)");
    for (double interval : intervalsMs) {
        double dev[2] = {0.0, 0.0};
        const std::size_t threadCounts[2] = {4, 20};
        for (int i = 0; i < 2; ++i) {
            SystemConfig config;
            config.sched = SchedAlgo::VarFAppIPC;
            config.pm = PmKind::LinOpt;
            config.ptargetW =
                75.0 * static_cast<double>(threadCounts[i]) / 20.0;
            config.dvfsIntervalMs = interval;
            // Cover several LinOpt periods (and several phase dwell
            // times) per run.
            config.durationMs = std::max(3.0 * interval, 400.0);
            config.osIntervalMs = config.durationMs; // schedule once
            config.phaseSampling.enabled =
                envFlag("VARSCHED_PHASE_SAMPLING", true);
            const auto r =
                bench::runBatch(batch, threadCounts[i], {config});
            dev[i] = r.absolute[0].deviation.mean() * 100.0;
        }
        std::printf("%-12.0f %16.2f %16.2f\n", interval, dev[0],
                    dev[1]);
    }
    std::printf("\n(paper: ~15%% at 2 s falling to <1%% at 10 ms)\n");
    return 0;
}
