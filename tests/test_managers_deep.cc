/**
 * @file
 * Deeper power-manager coverage: Foxton* mechanics, exhaustive-search
 * objectives and accounting, SAnn configuration behaviour, and
 * snapshot edge cases shared by all managers.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "chip/sensors.hh"
#include "core/exhaustive.hh"
#include "core/linopt.hh"
#include "core/pmalgo.hh"
#include "core/sann.hh"

namespace varsched
{
namespace
{

/** Synthetic snapshot; cores may differ in power scale and IPC. */
ChipSnapshot
makeSnapshot(std::size_t n, double ptarget, double pcoremax,
             std::vector<double> ipcs,
             std::vector<double> powerScale = {},
             std::vector<double> refMips = {})
{
    ChipSnapshot snap;
    snap.voltage = {0.6, 0.7, 0.8, 0.9, 1.0};
    snap.uncorePowerW = 2.0;
    snap.ptargetW = ptarget;
    snap.pcoreMaxW = pcoremax;
    for (std::size_t i = 0; i < n; ++i) {
        CoreSnapshot core;
        core.coreId = i;
        core.threadId = i;
        core.refMips = refMips.empty() ? 4000.0 : refMips[i];
        const double ps = powerScale.empty() ? 1.0 : powerScale[i];
        for (double v : snap.voltage) {
            snap.freqHz.push_back(4.0e9 * (v - 0.2) / 0.8);
            snap.ipc.push_back(ipcs[i]);
            snap.powerW.push_back(5.0 * v * v * ps);
        }
        snap.cores.push_back(core);
    }
    return snap;
}

TEST(FoxtonDeep, EmptySnapshotIsNoop)
{
    ChipSnapshot snap;
    FoxtonStarManager pm;
    EXPECT_TRUE(pm.selectLevels(snap).empty());
}

TEST(FoxtonDeep, SingleCoreStopsExactlyAtBudget)
{
    // One core: levels cost 5*{0.36,0.49,0.64,0.81,1.0}+2 uncore.
    auto snap = makeSnapshot(1, 5.3, 100.0, {1.0});
    FoxtonStarManager pm;
    const auto levels = pm.selectLevels(snap);
    // 5*0.64+2 = 5.2 <= 5.3 but 5*0.81+2 = 6.05 > 5.3 -> level 2.
    EXPECT_EQ(levels[0], 2);
}

TEST(FoxtonDeep, UncoreCountsAgainstBudget)
{
    auto snapA = makeSnapshot(2, 9.0, 100.0, {1.0, 1.0});
    auto snapB = snapA;
    snapB.uncorePowerW = 6.0; // 4 W less room for the cores
    FoxtonStarManager pm;
    const auto la = pm.selectLevels(snapA);
    const auto lb = pm.selectLevels(snapB);
    EXPECT_LT(lb[0] + lb[1], la[0] + la[1]);
}

TEST(FoxtonDeep, ReductionOrderIsRoundRobinFromCoreZero)
{
    // Budget forcing exactly one step: core 0 takes it.
    auto snap = makeSnapshot(3, 2.0 + 15.0 - 0.5, 100.0,
                             {1.0, 1.0, 1.0});
    FoxtonStarManager pm;
    const auto levels = pm.selectLevels(snap);
    EXPECT_EQ(levels, (std::vector<int>{3, 4, 4}));
}

TEST(ExhaustiveDeep, SingleThreadPicksTopFeasibleLevel)
{
    auto snap = makeSnapshot(1, 6.2, 100.0, {1.0});
    ExhaustiveManager pm;
    const auto levels = pm.selectLevels(snap);
    EXPECT_EQ(levels[0], 3); // 5*0.81+2=6.05 <= 6.2; 5+2=7 > 6.2
    EXPECT_EQ(pm.lastStates(), 5u);
}

TEST(ExhaustiveDeep, WeightedObjectivePrefersLowReferenceThread)
{
    // Two equal-power threads; thread 1 has a tiny reference MIPS so
    // its normalised progress is worth far more per level.
    auto snap = makeSnapshot(2, 2.0 + 5.0 + 5.0 * 0.36, 100.0,
                             {1.0, 1.0}, {}, {4000.0, 400.0});
    ExhaustiveManager tp(20'000'000, PmObjective::Throughput);
    ExhaustiveManager weighted(20'000'000, PmObjective::Weighted);
    const auto lt = tp.selectLevels(snap);
    const auto lw = weighted.selectLevels(snap);
    // Throughput mode is indifferent (equal a_i) but weighted mode
    // must put the high level on thread 1.
    EXPECT_EQ(lw[1], 4);
    EXPECT_EQ(lw[0], 0);
    EXPECT_EQ(lt[0] + lt[1], 4);
}

TEST(ExhaustiveDeep, InfeasibleEverywhereBottomsOut)
{
    auto snap = makeSnapshot(2, 1.0, 100.0, {1.0, 1.0});
    ExhaustiveManager pm;
    EXPECT_EQ(pm.selectLevels(snap), (std::vector<int>{0, 0}));
}

TEST(SAnnDeep, MoreEvalsNeverWorseOnAverage)
{
    auto snap = makeSnapshot(6, 18.0, 100.0,
                             {1.2, 0.1, 0.6, 1.0, 0.3, 0.9});
    double mipsSmall = 0.0, mipsLarge = 0.0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        SAnnConfig small;
        small.maxEvals = 300;
        small.seed = seed;
        SAnnConfig large;
        large.maxEvals = 20000;
        large.seed = seed;
        SAnnManager a(small), b(large);
        mipsSmall += snap.mipsAt(a.selectLevels(snap));
        mipsLarge += snap.mipsAt(b.selectLevels(snap));
    }
    EXPECT_GE(mipsLarge, mipsSmall * 0.999);
}

TEST(SAnnDeep, ReportsEvalsConsumed)
{
    auto snap = makeSnapshot(3, 14.0, 100.0, {1.0, 0.5, 0.2});
    SAnnConfig config;
    config.maxEvals = 1234;
    SAnnManager pm(config);
    pm.selectLevels(snap);
    EXPECT_EQ(pm.lastEvals(), 1234u);
}

TEST(SAnnDeep, DeterministicGivenSeed)
{
    auto snap = makeSnapshot(5, 16.0, 100.0,
                             {1.2, 0.4, 0.8, 0.1, 1.0});
    SAnnConfig config;
    config.maxEvals = 5000;
    config.seed = 99;
    SAnnManager a(config), b(config);
    EXPECT_EQ(a.selectLevels(snap), b.selectLevels(snap));
}

TEST(SAnnDeep, WeightedObjectiveFavoursLowReferenceThread)
{
    auto snap = makeSnapshot(2, 2.0 + 5.0 + 5.0 * 0.36, 100.0,
                             {1.0, 1.0}, {}, {4000.0, 400.0});
    SAnnConfig config;
    config.maxEvals = 20000;
    config.objective = PmObjective::Weighted;
    SAnnManager pm(config);
    const auto levels = pm.selectLevels(snap);
    EXPECT_GT(levels[1], levels[0]);
}

TEST(SnapshotEdge, WeightedAtMatchesManualSum)
{
    auto snap = makeSnapshot(2, 100.0, 100.0, {1.0, 0.5}, {},
                             {2000.0, 1000.0});
    const std::vector<int> levels{4, 4};
    // core0: 1.0 * 4 GHz = 4000 MIPS / 2000 = 2; core1: 2000/1000=2.
    EXPECT_NEAR(snap.weightedAt(levels), 4.0, 1e-9);
}

TEST(SnapshotEdge, FeasibleRespectsPerCoreCapOnly)
{
    auto snap = makeSnapshot(2, 1000.0, 4.9, {1.0, 1.0});
    // Level 3 costs 4.05 <= 4.9; level 4 costs 5.0 > 4.9.
    EXPECT_TRUE(snap.feasible({3, 3}));
    EXPECT_FALSE(snap.feasible({4, 3}));
}

} // namespace
} // namespace varsched
