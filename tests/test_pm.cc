/**
 * @file
 * Tests for the power-management algorithms: Foxton*, LinOpt, SAnn,
 * and the exhaustive reference — on hand-built snapshots where the
 * optimum is known, and on real-die snapshots where they are
 * cross-checked against each other (the paper's Section 6.5 protocol:
 * SAnn within 1% of exhaustive; LinOpt close behind).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "chip/sensors.hh"
#include "core/exhaustive.hh"
#include "core/linopt.hh"
#include "core/pmalgo.hh"
#include "core/sann.hh"
#include "core/sched.hh"

namespace varsched
{
namespace
{

/**
 * Hand-built snapshot: @p n identical cores with linear-ish frequency
 * and quadratic power across 5 levels (0.6-1.0 V).
 */
ChipSnapshot
syntheticSnapshot(std::size_t n, double ptarget, double pcoremax,
                  const std::vector<double> &ipcs)
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
        for (double v : snap.voltage) {
            snap.freqHz.push_back(4.0e9 * (v - 0.2) / 0.8);
            snap.ipc.push_back(ipcs[i]);
            snap.powerW.push_back(5.0 * v * v);
        }
        snap.cores.push_back(core);
    }
    return snap;
}

TEST(MaxLevelManager, AlwaysTop)
{
    const auto snap = syntheticSnapshot(3, 100.0, 100.0,
                                        {1.0, 1.0, 1.0});
    MaxLevelManager pm;
    const auto levels = pm.selectLevels(snap);
    EXPECT_EQ(levels, (std::vector<int>{4, 4, 4}));
}

TEST(FoxtonStar, NoReductionWhenUnderBudget)
{
    const auto snap = syntheticSnapshot(3, 100.0, 100.0,
                                        {1.0, 1.0, 1.0});
    FoxtonStarManager pm;
    const auto levels = pm.selectLevels(snap);
    EXPECT_EQ(levels, (std::vector<int>{4, 4, 4}));
}

TEST(FoxtonStar, ReducesRoundRobinToMeetBudget)
{
    // 3 cores at 5 W each + 2 uncore = 17; budget 14 forces ~2 steps.
    const auto snap = syntheticSnapshot(3, 14.0, 100.0,
                                        {1.0, 1.0, 1.0});
    FoxtonStarManager pm;
    const auto levels = pm.selectLevels(snap);
    EXPECT_LE(snap.powerAt(levels), 14.0 + 1e-9);
    // Round-robin keeps levels within one step of each other.
    const auto [lo, hi] = std::minmax_element(levels.begin(),
                                              levels.end());
    EXPECT_LE(*hi - *lo, 1);
}

TEST(FoxtonStar, EnforcesPerCoreCap)
{
    const auto snap = syntheticSnapshot(2, 100.0, 4.0, {1.0, 1.0});
    FoxtonStarManager pm;
    const auto levels = pm.selectLevels(snap);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_LE(snap.powerRow(i)[static_cast<std::size_t>(
                      levels[i])],
                  4.0 + 1e-9);
    }
}

TEST(FoxtonStar, CapTighterThanLowestLevelBottomsOut)
{
    // Even the 0.6 V level burns 1.8 W; a 1 W per-core cap is
    // unsatisfiable and must pin every core to the lowest level
    // rather than loop or go out of range.
    const auto snap = syntheticSnapshot(3, 100.0, 1.0,
                                        {1.0, 1.0, 1.0});
    FoxtonStarManager pm;
    EXPECT_EQ(pm.selectLevels(snap), (std::vector<int>{0, 0, 0}));
}

TEST(FoxtonStar, SingleActiveCoreReducesAlone)
{
    // One active core, 2 W uncore: a 4.5 W budget leaves 2.5 W for
    // the core, which the 0.7 V level (2.45 W) just satisfies.
    const auto snap = syntheticSnapshot(1, 4.5, 100.0, {1.0});
    FoxtonStarManager pm;
    const auto levels = pm.selectLevels(snap);
    ASSERT_EQ(levels.size(), 1u);
    EXPECT_EQ(levels[0], 1);
    EXPECT_LE(snap.powerAt(levels), 4.5 + 1e-9);
}

TEST(FoxtonStar, SingleCoreHonoursPerCoreCap)
{
    // Loose chip budget, tight per-core cap: the cap alone drives
    // the reduction (2 W admits only the 0.6 V level at 1.8 W).
    const auto snap = syntheticSnapshot(1, 100.0, 2.0, {1.0});
    FoxtonStarManager pm;
    EXPECT_EQ(pm.selectLevels(snap), (std::vector<int>{0}));
}

TEST(FoxtonStar, UnreachableBudgetBottomsOut)
{
    const auto snap = syntheticSnapshot(2, 0.5, 100.0, {1.0, 1.0});
    FoxtonStarManager pm;
    const auto levels = pm.selectLevels(snap);
    EXPECT_EQ(levels, (std::vector<int>{0, 0}));
}

TEST(FoxtonStar, IgnoresIpcDifferences)
{
    // Foxton* is IPC-blind: identical cores with wildly different
    // threads still end within one level of each other.
    const auto snap = syntheticSnapshot(4, 16.0, 100.0,
                                        {1.2, 0.1, 0.1, 1.2});
    FoxtonStarManager pm;
    const auto levels = pm.selectLevels(snap);
    const auto [lo, hi] = std::minmax_element(levels.begin(),
                                              levels.end());
    EXPECT_LE(*hi - *lo, 1);
}

TEST(LinOpt, KeepsEverythingHighWhenBudgetLoose)
{
    const auto snap = syntheticSnapshot(3, 100.0, 100.0,
                                        {1.0, 1.0, 1.0});
    LinOptManager pm;
    const auto levels = pm.selectLevels(snap);
    EXPECT_EQ(levels, (std::vector<int>{4, 4, 4}));
}

TEST(LinOpt, FavoursHighIpcThreadsUnderPressure)
{
    // Budget for roughly half the full-power chip: the high-IPC
    // threads must end at higher levels than the low-IPC ones.
    const auto snap = syntheticSnapshot(4, 13.0, 100.0,
                                        {1.2, 0.1, 0.1, 1.2});
    LinOptManager pm;
    const auto levels = pm.selectLevels(snap);
    EXPECT_LE(snap.powerAt(levels), 13.0 + 1e-9);
    EXPECT_GT(levels[0], levels[1]);
    EXPECT_GT(levels[3], levels[2]);
}

TEST(LinOpt, BeatsFoxtonOnHeterogeneousWork)
{
    const auto snap = syntheticSnapshot(6, 18.0, 100.0,
                                        {1.2, 1.1, 0.1, 0.1, 0.2, 1.0});
    LinOptManager lin;
    FoxtonStarManager fox;
    const auto ll = lin.selectLevels(snap);
    const auto lf = fox.selectLevels(snap);
    EXPECT_LE(snap.powerAt(ll), 18.0 + 1e-9);
    EXPECT_GT(snap.mipsAt(ll), snap.mipsAt(lf) * 1.02);
}

TEST(LinOpt, RespectsPerCoreCap)
{
    const auto snap = syntheticSnapshot(3, 100.0, 3.3, {1.0, 1.0, 1.0});
    LinOptManager pm;
    const auto levels = pm.selectLevels(snap);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_LE(snap.powerRow(i)[static_cast<std::size_t>(
                      levels[i])],
                  3.3 + 1e-9);
    }
}

TEST(LinOpt, UnreachableBudgetBottomsOut)
{
    const auto snap = syntheticSnapshot(2, 0.5, 100.0, {1.0, 1.0});
    LinOptManager pm;
    const auto levels = pm.selectLevels(snap);
    EXPECT_EQ(levels, (std::vector<int>{0, 0}));
    EXPECT_FALSE(pm.lastDiag().feasible);
}

TEST(LinOpt, TwoPointFitAlsoWorks)
{
    LinOptConfig config;
    config.powerSamplePoints = 2;
    LinOptManager pm(config);
    const auto snap = syntheticSnapshot(4, 13.0, 100.0,
                                        {1.2, 0.1, 0.1, 1.2});
    const auto levels = pm.selectLevels(snap);
    EXPECT_LE(snap.powerAt(levels), 13.0 + 1e-9);
    EXPECT_GT(levels[0], levels[1]);
}

TEST(LinOpt, RejectsUnsupportedSamplePointCounts)
{
    // The 2-or-3-sample restriction (Section 5.2) is a validated
    // error in release builds, not a stripped assert.
    LinOptConfig config;
    config.powerSamplePoints = 4;
    EXPECT_THROW(LinOptManager{config}, std::invalid_argument);
    config.powerSamplePoints = 0;
    EXPECT_THROW(LinOptManager{config}, std::invalid_argument);
}

TEST(LinOpt, DiagnosticsPopulated)
{
    const auto snap = syntheticSnapshot(3, 14.0, 100.0,
                                        {1.0, 0.5, 0.2});
    LinOptManager pm;
    pm.selectLevels(snap);
    EXPECT_TRUE(pm.lastDiag().feasible);
    EXPECT_EQ(pm.lastDiag().continuousV.size(), 3u);
    for (double v : pm.lastDiag().continuousV) {
        EXPECT_GE(v, 0.6 - 1e-9);
        EXPECT_LE(v, 1.0 + 1e-9);
    }
}

TEST(SAnn, FeasibleAndNearExhaustiveOnSynthetic)
{
    const auto snap = syntheticSnapshot(4, 13.0, 100.0,
                                        {1.2, 0.1, 0.6, 1.2});
    SAnnConfig config;
    config.maxEvals = 30000;
    SAnnManager sann(config);
    ExhaustiveManager exhaustive;
    const auto ls = sann.selectLevels(snap);
    const auto le = exhaustive.selectLevels(snap);
    EXPECT_TRUE(snap.feasible(ls));
    EXPECT_GE(snap.mipsAt(ls), snap.mipsAt(le) * 0.99);
}

TEST(Exhaustive, FindsKnownOptimum)
{
    // Two cores, budget for one high + one low exactly.
    const auto snap = syntheticSnapshot(2, 2.0 + 5.0 + 5.0 * 0.36,
                                        100.0, {1.0, 0.1});
    ExhaustiveManager pm;
    const auto levels = pm.selectLevels(snap);
    // The high-IPC core deserves the high level.
    EXPECT_EQ(levels[0], 4);
    EXPECT_EQ(levels[1], 0);
    EXPECT_EQ(pm.lastStates(), 25u);
}

class RealDiePmTest : public ::testing::Test
{
  protected:
    RealDiePmTest() : die_(makeParams(), 31), evaluator_(die_) {}

    static DieParams
    makeParams()
    {
        DieParams p;
        p.variation.gridSize = 48;
        return p;
    }

    ChipSnapshot
    snapshotFor(std::size_t numThreads, double ptarget)
    {
        Rng rng(17);
        auto apps = randomWorkload(numThreads, rng);
        auto asg =
            scheduleThreads(SchedAlgo::VarFAppIPC, die_, apps, rng);
        std::vector<CoreWork> work(die_.numCores());
        for (std::size_t t = 0; t < numThreads; ++t)
            work[asg[t]].app = apps[t];
        std::vector<int> top(die_.numCores(),
                             static_cast<int>(die_.maxLevel()));
        const auto cond = evaluator_.evaluate(work, top);
        return buildSnapshot(evaluator_, work, cond, ptarget,
                             2.0 * ptarget /
                                 static_cast<double>(numThreads),
                             nullptr);
    }

    Die die_;
    ChipEvaluator evaluator_;
};

TEST_F(RealDiePmTest, SAnnWithinOnePercentOfExhaustive)
{
    // Section 6.5: for <= 4 threads, SAnn lands within 1% of the
    // exhaustive search.
    const auto snap = snapshotFor(4, 16.0);
    ExhaustiveManager exhaustive;
    SAnnConfig config;
    config.maxEvals = 40000;
    SAnnManager sann(config);
    const auto le = exhaustive.selectLevels(snap);
    const auto ls = sann.selectLevels(snap);
    EXPECT_TRUE(snap.feasible(ls));
    EXPECT_GE(snap.mipsAt(ls), snap.mipsAt(le) * 0.99);
}

TEST_F(RealDiePmTest, LinOptNearExhaustiveAtFourThreads)
{
    const auto snap = snapshotFor(4, 16.0);
    ExhaustiveManager exhaustive;
    LinOptManager lin;
    const auto le = exhaustive.selectLevels(snap);
    const auto ll = lin.selectLevels(snap);
    EXPECT_GE(snap.mipsAt(ll), snap.mipsAt(le) * 0.93);
}

TEST_F(RealDiePmTest, OrderingHoldsAtTwentyThreads)
{
    const auto snap = snapshotFor(20, 75.0);
    FoxtonStarManager fox;
    LinOptManager lin;
    SAnnConfig config;
    config.maxEvals = 30000;
    SAnnManager sann(config);
    const double mFox = snap.mipsAt(fox.selectLevels(snap));
    const double mLin = snap.mipsAt(lin.selectLevels(snap));
    const double mSann = snap.mipsAt(sann.selectLevels(snap));
    EXPECT_GT(mLin, mFox);
    // Paper: SAnn within ~2% of LinOpt (either direction is fine).
    EXPECT_NEAR(mSann / mLin, 1.0, 0.05);
}

} // namespace
} // namespace varsched
