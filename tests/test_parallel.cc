/**
 * @file
 * Tests for the parallel-gang extension: barrier speed metric and the
 * max-min LP power manager.
 */

#include <gtest/gtest.h>

#include "chip/sensors.hh"
#include "core/linopt.hh"
#include "core/parallel.hh"
#include "core/pmalgo.hh"
#include "core/sched.hh"

namespace varsched
{
namespace
{

/** Hand-built snapshot (same shape as tests/test_pm.cc). */
ChipSnapshot
syntheticSnapshot(std::size_t n, double ptarget,
                  const std::vector<double> &ipcs,
                  const std::vector<double> &powerScale = {})
{
    ChipSnapshot snap;
    snap.voltage = {0.6, 0.7, 0.8, 0.9, 1.0};
    snap.uncorePowerW = 2.0;
    snap.ptargetW = ptarget;
    snap.pcoreMaxW = 100.0;
    for (std::size_t i = 0; i < n; ++i) {
        CoreSnapshot core;
        core.coreId = i;
        core.threadId = i;
        const double ps =
            powerScale.empty() ? 1.0 : powerScale[i];
        for (double v : snap.voltage) {
            snap.freqHz.push_back(4.0e9 * (v - 0.2) / 0.8);
            snap.ipc.push_back(ipcs[i]);
            snap.powerW.push_back(5.0 * v * v * ps);
        }
        snap.cores.push_back(core);
    }
    return snap;
}

TEST(BarrierSpeed, IsSlowestWorker)
{
    const auto snap = syntheticSnapshot(3, 100.0, {1.0, 0.5, 2.0});
    const std::vector<int> levels{4, 4, 4};
    // Slowest: ipc 0.5 at 4 GHz = 2000 MIPS.
    EXPECT_NEAR(barrierSpeed(snap, levels), 2000.0, 1e-6);
}

TEST(BarrierSpeed, EmptySnapshotIsZero)
{
    ChipSnapshot snap;
    EXPECT_DOUBLE_EQ(barrierSpeed(snap, {}), 0.0);
}

TEST(LinOptMaxMin, LooseBudgetRunsEverythingFlatOut)
{
    const auto snap = syntheticSnapshot(3, 1000.0, {1.0, 1.0, 1.0});
    LinOptMaxMinManager pm;
    const auto levels = pm.selectLevels(snap);
    EXPECT_EQ(levels, (std::vector<int>{4, 4, 4}));
}

TEST(LinOptMaxMin, FeasibleUnderTightBudget)
{
    const auto snap = syntheticSnapshot(4, 13.0, {1.0, 1.0, 1.0, 1.0});
    LinOptMaxMinManager pm;
    const auto levels = pm.selectLevels(snap);
    EXPECT_LE(snap.powerAt(levels), 13.0 + 1e-9);
}

TEST(LinOptMaxMin, BoostsTheGangBottleneck)
{
    // Identical workers, but worker 0's core is twice as power-hungry
    // (a leaky fast core). Max-min should still keep the workers
    // *paced together* rather than starving worker 0.
    const auto snap = syntheticSnapshot(4, 16.0, {1.0, 1.0, 1.0, 1.0},
                                        {2.0, 1.0, 1.0, 1.0});
    LinOptMaxMinManager maxmin;
    LinOptManager sum;
    const auto lm = maxmin.selectLevels(snap);
    const auto ls = sum.selectLevels(snap);
    EXPECT_GE(barrierSpeed(snap, lm), barrierSpeed(snap, ls));
    // The sum objective starves the expensive core outright.
    EXPECT_LT(ls[0], lm[0] + 1);
}

TEST(LinOptMaxMin, BeatsSumObjectiveOnRealDie)
{
    DieParams params;
    params.variation.gridSize = 48;
    Die die(params, 314);
    ChipEvaluator evaluator(die);
    Rng rng(3);
    std::vector<const AppProfile *> gang(12,
                                         &findApplication("gzip"));
    auto asg = scheduleThreads(SchedAlgo::VarF, die, gang, rng);
    std::vector<CoreWork> work(die.numCores());
    for (std::size_t t = 0; t < gang.size(); ++t)
        work[asg[t]].app = gang[t];
    std::vector<int> top(die.numCores(),
                         static_cast<int>(die.maxLevel()));
    const auto cond = evaluator.evaluate(work, top);
    const auto snap =
        buildSnapshot(evaluator, work, cond, 45.0, 7.5, nullptr);

    LinOptMaxMinManager maxmin;
    LinOptManager sum;
    FoxtonStarManager fox;
    const double bMaxmin =
        barrierSpeed(snap, maxmin.selectLevels(snap));
    const double bSum = barrierSpeed(snap, sum.selectLevels(snap));
    const double bFox = barrierSpeed(snap, fox.selectLevels(snap));
    EXPECT_GT(bMaxmin, bSum);
    EXPECT_GE(bMaxmin, bFox * 0.98);
}

TEST(LinOptMaxMin, RespectsPerCoreCap)
{
    auto snap = syntheticSnapshot(3, 1000.0, {1.0, 1.0, 1.0});
    snap.pcoreMaxW = 3.3; // level 2 costs 3.2, level 3 costs 4.05
    LinOptMaxMinManager pm;
    const auto levels = pm.selectLevels(snap);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_LE(snap.powerRow(i)[static_cast<std::size_t>(
                      levels[i])],
                  3.3 + 1e-9);
    }
}

TEST(LinOptMaxMin, EmptySnapshotIsNoop)
{
    ChipSnapshot snap;
    LinOptMaxMinManager pm;
    EXPECT_TRUE(pm.selectLevels(snap).empty());
}

} // namespace
} // namespace varsched
