/**
 * @file
 * Fig 9 of the paper: NUniFreq — average frequency (a) and
 * throughput (b) of VarF and VarF&AppIPC relative to Random, for
 * 2-20 threads.
 *
 * Paper: VarF raises average frequency ~10% at 4 threads (0% at 20,
 * where it degenerates to Random); VarF&AppIPC delivers 5-10% higher
 * throughput than Random across loads by pairing high-IPC threads
 * with fast cores.
 */

#include <cstdio>

#include "bench/common.hh"

using namespace varsched;

int
main()
{
    bench::banner("Fig 9: NUniFreq frequency (a) and MIPS (b) vs "
                  "Random",
                  "VarF +10% frequency at 4 threads; VarF&AppIPC "
                  "+5-10% MIPS");

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

    std::printf("%-8s | %-30s | %-30s\n", "",
                "frequency rel. to Random", "MIPS rel. to Random");
    std::printf("%-8s | %8s %9s %11s | %8s %9s %11s\n", "threads",
                "Random", "VarF", "VarF&AppIPC", "Random", "VarF",
                "VarF&AppIPC");
    for (std::size_t threads : bench::threadSweep(true)) {
        const auto r = runBatch(batch, threads, configs);
        std::printf(
            "%-8zu | %8.3f %9.3f %11.3f | %8.3f %9.3f %11.3f\n",
            threads, r.relative[0].freqHz.mean(),
            r.relative[1].freqHz.mean(), r.relative[2].freqHz.mean(),
            r.relative[0].mips.mean(), r.relative[1].mips.mean(),
            r.relative[2].mips.mean());
    }
    return 0;
}
