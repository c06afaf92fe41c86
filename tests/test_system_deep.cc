/**
 * @file
 * Deeper system-simulator coverage: the LinOptMaxMin manager in the
 * time domain, gang metrics, objective plumbing, interval edge
 * cases, and explicit per-core caps.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/system.hh"

namespace varsched
{
namespace
{

DieParams
testParams()
{
    DieParams p;
    p.variation.gridSize = 48;
    return p;
}

class SystemDeepFixture : public ::testing::Test
{
  protected:
    SystemDeepFixture() : die_(testParams(), 314) {}

    Die die_;
};

TEST_F(SystemDeepFixture, MaxMinManagerRaisesGangPace)
{
    std::vector<const AppProfile *> gang(12,
                                         &findApplication("gzip"));
    SystemConfig sum;
    sum.sched = SchedAlgo::VarF;
    sum.pm = PmKind::LinOpt;
    sum.ptargetW = 45.0;
    sum.durationMs = 120.0;
    SystemConfig maxmin = sum;
    maxmin.pm = PmKind::LinOptMaxMin;

    SystemSimulator simSum(die_, gang, sum);
    SystemSimulator simMaxMin(die_, gang, maxmin);
    const auto rs = simSum.run();
    const auto rm = simMaxMin.run();
    EXPECT_GT(rm.avgMinThreadMips, rs.avgMinThreadMips);
    // The price: sum throughput no better.
    EXPECT_LE(rm.avgMips, rs.avgMips * 1.05);
}

TEST_F(SystemDeepFixture, MinThreadMipsIsAtMostMeanThread)
{
    Rng rng(3);
    const auto apps = randomWorkload(10, rng);
    SystemConfig c;
    c.pm = PmKind::FoxtonStar;
    c.ptargetW = 40.0;
    c.durationMs = 80.0;
    SystemSimulator sim(die_, apps, c);
    const auto r = sim.run();
    EXPECT_GT(r.avgMinThreadMips, 0.0);
    EXPECT_LE(r.avgMinThreadMips, r.avgMips / 10.0 + 1e-9);
}

TEST_F(SystemDeepFixture, WeightedObjectiveImprovesWeightedScore)
{
    Rng rng(5);
    const auto apps = randomWorkload(16, rng);
    SystemConfig tp;
    tp.sched = SchedAlgo::VarFAppIPC;
    tp.pm = PmKind::LinOpt;
    tp.ptargetW = 60.0;
    tp.durationMs = 120.0;
    SystemConfig weighted = tp;
    weighted.pmObjective = PmObjective::Weighted;

    SystemSimulator simT(die_, apps, tp);
    SystemSimulator simW(die_, apps, weighted);
    const auto rt = simT.run();
    const auto rw = simW.run();
    // The weighted objective optimises progress parity; its
    // progress-based score must not collapse relative to the
    // throughput objective's.
    EXPECT_GT(rw.avgWeightedProgress, rt.avgWeightedProgress * 0.9);
    // ... and raw throughput should favour the throughput objective.
    EXPECT_GE(rt.avgMips, rw.avgMips * 0.98);
}

TEST_F(SystemDeepFixture, ExplicitPerCoreCapIsHonoured)
{
    Rng rng(7);
    const auto apps = randomWorkload(8, rng);
    SystemConfig c;
    c.pm = PmKind::FoxtonStar;
    c.ptargetW = 100.0;  // loose chip budget
    c.pcoreMaxW = 4.0;   // tight per-core cap dominates
    c.durationMs = 60.0;
    SystemSimulator sim(die_, apps, c);
    const auto r = sim.run();
    // With 8 active cores at <= 4 W plus uncore, chip power must sit
    // well under the loose budget.
    EXPECT_LT(r.avgPowerW, 8 * 4.0 + 12.0);
}

TEST_F(SystemDeepFixture, DvfsIntervalLongerThanRunStillWorks)
{
    Rng rng(9);
    const auto apps = randomWorkload(6, rng);
    SystemConfig c;
    c.pm = PmKind::LinOpt;
    c.ptargetW = 25.0;
    c.durationMs = 30.0;
    c.dvfsIntervalMs = 500.0; // only the tick-0 invocation fires
    SystemSimulator sim(die_, apps, c);
    const auto r = sim.run();
    EXPECT_GT(r.avgMips, 0.0);
    EXPECT_EQ(r.powerTrace.size(), 30u);
}

TEST_F(SystemDeepFixture, SingleTickRun)
{
    Rng rng(11);
    const auto apps = randomWorkload(4, rng);
    SystemConfig c;
    c.pm = PmKind::None;
    c.durationMs = 1.0;
    SystemSimulator sim(die_, apps, c);
    const auto r = sim.run();
    EXPECT_EQ(r.powerTrace.size(), 1u);
    EXPECT_GT(r.avgMips, 0.0);
}

TEST_F(SystemDeepFixture, PowerTraceMatchesAverage)
{
    Rng rng(13);
    const auto apps = randomWorkload(8, rng);
    SystemConfig c;
    c.pm = PmKind::FoxtonStar;
    c.ptargetW = 35.0;
    c.durationMs = 50.0;
    SystemSimulator sim(die_, apps, c);
    const auto r = sim.run();
    double sum = 0.0;
    for (double p : r.powerTrace)
        sum += p;
    EXPECT_NEAR(sum / static_cast<double>(r.powerTrace.size()),
                r.avgPowerW, 1e-9);
}

TEST_F(SystemDeepFixture, ThermalAwareKeepsThroughputCompetitive)
{
    Rng rng(15);
    const auto apps = randomWorkload(8, rng);
    SystemConfig rnd;
    rnd.sched = SchedAlgo::Random;
    rnd.pm = PmKind::LinOpt;
    rnd.ptargetW = 30.0;
    rnd.durationMs = 120.0;
    SystemConfig thermal = rnd;
    thermal.sched = SchedAlgo::ThermalAware;
    thermal.osIntervalMs = 40.0;

    SystemSimulator simR(die_, apps, rnd);
    SystemSimulator simT(die_, apps, thermal);
    const auto rr = simR.run();
    const auto rt = simT.run();
    EXPECT_GT(rt.avgMips, rr.avgMips * 0.9);
}

TEST(SystemNames, PmKindNamesStable)
{
    EXPECT_STREQ(pmKindName(PmKind::LinOptMaxMin), "LinOptMaxMin");
    EXPECT_STREQ(pmKindName(PmKind::FoxtonStar), "Foxton*");
    EXPECT_STREQ(pmKindName(PmKind::None), "None");
}

TEST(SystemNames, ThermalAwareNameStable)
{
    EXPECT_STREQ(schedAlgoName(SchedAlgo::ThermalAware),
                 "ThermalAware");
}

} // namespace
} // namespace varsched
