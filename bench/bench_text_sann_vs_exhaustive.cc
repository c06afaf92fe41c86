/**
 * @file
 * Section 6.5 (text claim): SAnn, tuned as in the paper, lands
 * within 1% of an exhaustive search of the (V, f) space for
 * configurations of up to 4 threads. Also reports LinOpt on the same
 * snapshots for context.
 */

#include <cstdio>

#include "bench/common.hh"
#include "chip/sensors.hh"
#include "core/exhaustive.hh"
#include "core/linopt.hh"
#include "core/sann.hh"
#include "core/sched.hh"
#include "solver/stats.hh"

using namespace varsched;

int
main()
{
    bench::banner("Section 6.5 text: SAnn vs exhaustive search "
                  "(<= 4 threads)",
                  "SAnn throughput within 1% of exhaustive in all "
                  "tested configurations");

    const std::size_t trials = envSize("VARSCHED_TRIALS", 10);
    std::printf("[%zu (die, workload) trials per thread count]\n\n",
                trials);

    DieParams params;
    std::printf("%-8s %14s %14s %12s\n", "threads", "SAnn/Exh",
                "LinOpt/Exh", "worst SAnn");
    for (std::size_t threads : {1u, 2u, 3u, 4u}) {
        Summary sannRatio, linRatio;
        double worst = 1.0;
        Rng seeder(555);
        for (std::size_t trial = 0; trial < trials; ++trial) {
            const Die die(params, seeder.next());
            ChipEvaluator evaluator(die);
            Rng rng = seeder.fork(trial);
            auto apps = randomWorkload(threads, rng);
            auto asg = scheduleThreads(SchedAlgo::VarFAppIPC, die,
                                       apps, rng);
            std::vector<CoreWork> work(die.numCores());
            for (std::size_t t = 0; t < threads; ++t)
                work[asg[t]].app = apps[t];
            std::vector<int> top(die.numCores(),
                                 static_cast<int>(die.maxLevel()));
            const auto cond = evaluator.evaluate(work, top);
            const double ptarget =
                75.0 * static_cast<double>(threads) / 20.0;
            const auto snap = buildSnapshot(
                evaluator, work, cond, ptarget,
                2.0 * ptarget / static_cast<double>(threads),
                nullptr);

            ExhaustiveManager exhaustive;
            SAnnConfig sc;
            sc.maxEvals = envSize("VARSCHED_SANN_EVALS", 40000);
            sc.seed = trial + 1;
            SAnnManager sann(sc);
            LinOptManager lin;

            const double mExh =
                snap.mipsAt(exhaustive.selectLevels(snap));
            const double mSann = snap.mipsAt(sann.selectLevels(snap));
            const double mLin = snap.mipsAt(lin.selectLevels(snap));
            sannRatio.add(mSann / mExh);
            linRatio.add(mLin / mExh);
            worst = std::min(worst, mSann / mExh);
        }
        std::printf("%-8zu %14.4f %14.4f %12.4f\n", threads,
                    sannRatio.mean(), linRatio.mean(), worst);
    }
    std::printf("\n(paper: SAnn within 1%% of exhaustive, i.e. ratio "
                ">= 0.99)\n");
    return 0;
}
