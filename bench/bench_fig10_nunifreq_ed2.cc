/**
 * @file
 * Fig 10 of the paper: NUniFreq — ED^2 of VarF and VarF&AppIPC
 * relative to Random, for 2-20 threads.
 *
 * Paper: at light load (<= 4 threads) the fast cores' extra power
 * makes VarF/VarF&AppIPC *worse* in ED^2; at 8-20 threads
 * VarF&AppIPC wins by 10-13% because the throughput gain dominates.
 */

#include <cstdio>

#include "bench/common.hh"

using namespace varsched;

int
main()
{
    bench::banner("Fig 10: NUniFreq ED^2 vs Random",
                  "VarF&AppIPC 10-13% better at 8-20 threads; worse "
                  "at <= 4 threads");

    BatchConfig batch = defaultBatch(10, 5);
    bench::describeBatch(batch);

    std::vector<SystemConfig> configs(3);
    configs[0].sched = SchedAlgo::Random;
    configs[1].sched = SchedAlgo::VarF;
    configs[2].sched = SchedAlgo::VarFAppIPC;
    for (auto &c : configs) {
        c.pm = PmKind::None;
        c.durationMs = 150.0;
    }

    std::printf("%-8s | %8s %9s %11s\n", "threads", "Random", "VarF",
                "VarF&AppIPC");
    for (std::size_t threads : bench::threadSweep(true)) {
        const auto r = bench::runBatch(batch, threads, configs);
        std::printf("%-8zu | %8.3f %9.3f %11.3f\n", threads,
                    r.relative[0].ed2.mean(),
                    r.relative[1].ed2.mean(),
                    r.relative[2].ed2.mean());
    }
    return 0;
}
