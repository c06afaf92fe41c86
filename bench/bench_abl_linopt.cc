/**
 * @file
 * Ablations of LinOpt's design choices (not in the paper, but called
 * out in DESIGN.md):
 *  1. 3-point vs 2-point power linearisation (Section 5.2 says "3
 *     or, at the very least, 2" measurement voltages).
 *  2. LP round-down alone vs round-down + greedy refill of the slack
 *     created by discretisation.
 */

#include <cstdio>

#include "bench/common.hh"
#include "chip/sensors.hh"
#include "core/linopt.hh"
#include "core/sched.hh"
#include "solver/stats.hh"

using namespace varsched;

int
main()
{
    bench::banner("Ablation: LinOpt power-fit points and greedy "
                  "refill",
                  "design-choice sensitivity; not a paper figure");

    const std::size_t trials = envSize("VARSCHED_TRIALS", 12);
    std::printf("[%zu (die, workload) trials, 20 threads, 75 W]\n\n",
                trials);

    DieParams params;
    Summary fit3Refill, fit2Refill, fit3NoRefill;
    Rng seeder(777);
    for (std::size_t trial = 0; trial < trials; ++trial) {
        const Die die(params, seeder.next());
        ChipEvaluator evaluator(die);
        Rng rng = seeder.fork(trial);
        auto apps = randomWorkload(20, rng);
        auto asg =
            scheduleThreads(SchedAlgo::VarFAppIPC, die, apps, rng);
        std::vector<CoreWork> work(die.numCores());
        for (std::size_t t = 0; t < 20; ++t)
            work[asg[t]].app = apps[t];
        std::vector<int> top(die.numCores(),
                             static_cast<int>(die.maxLevel()));
        const auto cond = evaluator.evaluate(work, top);
        const auto snap = buildSnapshot(evaluator, work, cond, 75.0,
                                        7.5, nullptr);

        LinOptConfig c3;
        LinOptConfig c2;
        c2.powerSamplePoints = 2;
        LinOptConfig cNoRefill;
        cNoRefill.greedyRefill = false;

        LinOptManager m3(c3), m2(c2), mn(cNoRefill);
        const double base = snap.mipsAt(m3.selectLevels(snap));
        fit3Refill.add(1.0);
        fit2Refill.add(snap.mipsAt(m2.selectLevels(snap)) / base);
        fit3NoRefill.add(snap.mipsAt(mn.selectLevels(snap)) / base);
    }

    std::printf("%-34s %10s\n", "variant", "rel MIPS");
    std::printf("%-34s %10.3f\n", "3-point fit + greedy refill (ref)",
                fit3Refill.mean());
    std::printf("%-34s %10.3f\n", "2-point fit + greedy refill",
                fit2Refill.mean());
    std::printf("%-34s %10.3f\n", "3-point fit, no refill",
                fit3NoRefill.mean());
    return 0;
}
