/**
 * @file
 * Fig 8 of the paper: NUniFreq (each core at its own maximum
 * frequency, no DVFS) — total power (a) and ED^2 (b) of VarP and
 * VarP&AppP relative to Random, for 2-20 threads.
 *
 * Paper: ~14% power saving at 4 threads, decreasing with load; the
 * ED^2 gain is smaller than in Fig 7 because the low-leakage cores
 * VarP picks are often also the low-frequency ones.
 */

#include <cstdio>

#include "bench/common.hh"

using namespace varsched;

int
main()
{
    bench::banner("Fig 8: NUniFreq power (a) and ED^2 (b) vs Random",
                  "VarP/VarP&AppP save ~14% power at 4 threads; ED^2 "
                  "gains smaller than Fig 7");

    BatchConfig batch = defaultBatch(10, 5);
    bench::describeBatch(batch);

    std::vector<SystemConfig> configs(3);
    configs[0].sched = SchedAlgo::Random;
    configs[1].sched = SchedAlgo::VarP;
    configs[2].sched = SchedAlgo::VarPAppP;
    for (auto &c : configs) {
        c.pm = PmKind::None;
        c.durationMs = 150.0;
    }

    std::printf("%-8s | %-28s | %-28s\n", "", "power rel. to Random",
                "ED^2 rel. to Random");
    std::printf("%-8s | %8s %9s %9s | %8s %9s %9s\n", "threads",
                "Random", "VarP", "VarP&AppP", "Random", "VarP",
                "VarP&AppP");
    for (std::size_t threads : bench::threadSweep(true)) {
        const auto r = bench::runBatch(batch, threads, configs);
        std::printf("%-8zu | %8.3f %9.3f %9.3f | %8.3f %9.3f %9.3f\n",
                    threads, r.relative[0].powerW.mean(),
                    r.relative[1].powerW.mean(),
                    r.relative[2].powerW.mean(),
                    r.relative[0].ed2.mean(),
                    r.relative[1].ed2.mean(),
                    r.relative[2].ed2.mean());
    }
    return 0;
}
