/**
 * @file
 * Fig 12 of the paper: throughput of the four algorithm combinations
 * relative to Random+Foxton* in the three power environments —
 * Low Power (50 W), Cost-Performance (75 W), High Performance
 * (100 W) — all at 20 threads.
 *
 * Paper: LinOpt's relative gains shrink as the budget loosens:
 * +16% / +12% / +11% at 50 / 75 / 100 W.
 */

#include <cstdio>

#include "bench/common.hh"

using namespace varsched;

int
main()
{
    bench::banner("Fig 12: throughput vs power environment "
                  "(20 threads)",
                  "LinOpt +16%/+12%/+11% at 50/75/100 W vs "
                  "Random+Foxton*");

    BatchConfig batch = defaultBatch(8, 4);
    bench::describeBatch(batch);

    std::printf("%-10s | %14s %19s %18s %16s\n", "Ptarget",
                "Random+Foxton*", "VarF&AppIPC+Foxton*",
                "VarF&AppIPC+LinOpt", "VarF&AppIPC+SAnn");
    for (double ptarget : {50.0, 75.0, 100.0}) {
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
            c.ptargetW = ptarget;
            c.durationMs = 150.0;
            c.sannEvals = envSize("VARSCHED_SANN_EVALS", 8000);
        }
        const auto r = bench::runBatch(batch, 20, configs);
        std::printf("%-10.0f | %14.3f %19.3f %18.3f %16.3f\n",
                    ptarget, r.relative[0].mips.mean(),
                    r.relative[1].mips.mean(),
                    r.relative[2].mips.mean(),
                    r.relative[3].mips.mean());
    }
    return 0;
}
