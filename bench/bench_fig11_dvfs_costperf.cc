/**
 * @file
 * Fig 11 of the paper: NUniFreq+DVFS in the Cost-Performance power
 * environment (Ptarget = 75 W at 20 threads, scaled with load) —
 * throughput (a) and ED^2 (b) of VarF&AppIPC+Foxton*,
 * VarF&AppIPC+LinOpt, and VarF&AppIPC+SAnn relative to
 * Random+Foxton*, for 4-20 threads.
 *
 * Paper: Foxton* +4-6%; LinOpt +12-17% MIPS and -30-38% ED^2; SAnn
 * within ~2% of LinOpt at orders of magnitude higher cost.
 */

#include <cstdio>

#include "bench/common.hh"

using namespace varsched;

int
main()
{
    bench::banner("Fig 11: NUniFreq+DVFS throughput (a) and ED^2 (b), "
                  "Cost-Performance environment (75 W at 20 threads)",
                  "LinOpt +12-17% MIPS, -30-38% ED^2 vs "
                  "Random+Foxton*; SAnn ~= LinOpt");

    BatchConfig batch = defaultBatch(8, 4);
    bench::describeBatch(batch);

    for (std::size_t threads : bench::threadSweep(false)) {
        std::vector<SystemConfig> configs(4);
        configs[0].sched = SchedAlgo::Random;
        configs[0].pm = PmKind::FoxtonStar;
        configs[1].sched = SchedAlgo::VarFAppIPC;
        configs[1].pm = PmKind::FoxtonStar;
        configs[2].sched = SchedAlgo::VarFAppIPC;
        configs[2].pm = PmKind::LinOpt;
        configs[3].sched = SchedAlgo::VarFAppIPC;
        configs[3].pm = PmKind::SAnn;
        for (auto &c : configs) {
            // Ptarget scales with load (Section 7.5).
            c.ptargetW = 75.0 * static_cast<double>(threads) / 20.0;
            c.durationMs = 150.0;
            c.sannEvals = envSize("VARSCHED_SANN_EVALS", 8000);
        }

        const auto r = runBatch(batch, threads, configs);
        std::printf("threads=%zu (Ptarget %.1f W)\n", threads,
                    configs[0].ptargetW);
        std::printf("  %-22s %10s %10s\n", "algorithm", "rel MIPS",
                    "rel ED^2");
        const char *names[4] = {"Random+Foxton*",
                                "VarF&AppIPC+Foxton*",
                                "VarF&AppIPC+LinOpt",
                                "VarF&AppIPC+SAnn"};
        for (int k = 0; k < 4; ++k) {
            std::printf("  %-22s %10.3f %10.3f\n", names[k],
                        r.relative[k].mips.mean(),
                        r.relative[k].ed2.mean());
        }
        std::printf("\n");
    }
    return 0;
}
