/**
 * @file
 * Fig 7 of the paper: UniFreq (all cores at the slowest core's
 * frequency, no DVFS) — total power (a) and ED^2 (b) of VarP and
 * VarP&AppP relative to Random, for 2-20 threads.
 *
 * Paper: ~10% power saving at 4 threads, shrinking toward 0% at 20
 * threads (no core choice left); ED^2 tracks power since frequency
 * is fixed.
 */

#include <cstdio>

#include "bench/common.hh"

using namespace varsched;

int
main()
{
    bench::banner("Fig 7: UniFreq power (a) and ED^2 (b) vs Random",
                  "VarP/VarP&AppP save ~10% power at 4 threads, ~0% "
                  "at 20");

    BatchConfig batch = defaultBatch(10, 5);
    bench::describeBatch(batch);

    std::vector<SystemConfig> configs(3);
    configs[0].sched = SchedAlgo::Random;
    configs[1].sched = SchedAlgo::VarP;
    configs[2].sched = SchedAlgo::VarPAppP;
    for (auto &c : configs) {
        c.pm = PmKind::None;
        c.uniformFrequency = true;
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
