/**
 * @file
 * Section 8 extension: parallel (barrier-synchronised) applications.
 * A gang of identical workers advances at its slowest worker's pace,
 * so the sum-throughput objective of LinOpt misallocates power. This
 * bench compares, on real-die snapshots:
 *
 *  - Foxton* (uniform reduction — accidentally not terrible for
 *    gangs, since it keeps workers roughly symmetric),
 *  - LinOpt (sum objective — starves workers on slow cores), and
 *  - LinOptMaxMin (the max-min LP of core/parallel.hh),
 *
 * on the barrier speed metric (slowest worker's MIPS).
 */

#include <cstdio>

#include "bench/common.hh"
#include "chip/sensors.hh"
#include "core/linopt.hh"
#include "core/parallel.hh"
#include "core/sched.hh"
#include "core/system.hh"
#include "solver/stats.hh"

using namespace varsched;

int
main()
{
    bench::banner("Extension: barrier-synchronised parallel gangs "
                  "(Section 8)",
                  "not a paper figure — the paper lists this as "
                  "planned work");

    const std::size_t trials = envSize("VARSCHED_TRIALS", 10);
    std::printf("[%zu dies; 16-worker gangs; budget 60 W]\n\n",
                trials);

    DieParams params;
    std::printf("%-12s | %-42s\n", "",
                "barrier speed (slowest worker MIPS)");
    std::printf("%-12s | %10s %10s %13s %8s\n", "gang app", "Foxton*",
                "LinOpt", "LinOptMaxMin", "gain");

    for (const auto *appName : {"swim", "gzip", "vortex"}) {
        Summary fox, lin, maxmin;
        Rng seeder(404);
        for (std::size_t trial = 0; trial < trials; ++trial) {
            const Die die(params, seeder.next());
            ChipEvaluator evaluator(die);
            Rng rng = seeder.fork(trial);

            const std::size_t workers = 16;
            std::vector<const AppProfile *> gang(
                workers, &findApplication(appName));
            auto asg = scheduleThreads(SchedAlgo::VarF, die, gang, rng);
            std::vector<CoreWork> work(die.numCores());
            for (std::size_t t = 0; t < workers; ++t)
                work[asg[t]].app = gang[t];
            std::vector<int> top(die.numCores(),
                                 static_cast<int>(die.maxLevel()));
            const auto cond = evaluator.evaluate(work, top);
            const auto snap = buildSnapshot(evaluator, work, cond,
                                            60.0, 7.5, nullptr);

            FoxtonStarManager pmFox;
            LinOptManager pmLin;
            LinOptMaxMinManager pmMaxMin;
            fox.add(barrierSpeed(snap, pmFox.selectLevels(snap)));
            lin.add(barrierSpeed(snap, pmLin.selectLevels(snap)));
            maxmin.add(
                barrierSpeed(snap, pmMaxMin.selectLevels(snap)));
        }
        std::printf("%-12s | %10.0f %10.0f %13.0f %7.1f%%\n", appName,
                    fox.mean(), lin.mean(), maxmin.mean(),
                    100.0 * (maxmin.mean() / lin.mean() - 1.0));
    }
    std::printf("\n(gain = LinOptMaxMin over sum-objective LinOpt on "
                "the metric that matters for gangs)\n\n");

    // Time-domain cross-check: run the full system (phases, sensors,
    // 10 ms DVFS, thermal settling) with each manager and score the
    // slowest thread's sustained pace.
    std::printf("time-domain (system simulator, 16x swim, 60 W, "
                "200 ms):\n");
    std::printf("  %-14s %16s %12s\n", "manager",
                "min-thread MIPS", "sum MIPS");
    DieParams dieParams;
    const Die die(dieParams, 31415);
    std::vector<const AppProfile *> gang(
        16, &findApplication("swim"));
    for (PmKind pm : {PmKind::FoxtonStar, PmKind::LinOpt,
                      PmKind::LinOptMaxMin}) {
        SystemConfig config;
        config.sched = SchedAlgo::VarF;
        config.pm = pm;
        config.ptargetW = 60.0;
        config.durationMs = 200.0;
        config.seed = 7;
        SystemSimulator sim(die, gang, config);
        const auto r = sim.run();
        std::printf("  %-14s %16.0f %12.0f\n", pmKindName(pm),
                    r.avgMinThreadMips, r.avgMips);
    }
    return 0;
}
