/**
 * @file
 * Integration tests for the system simulator (Fig 2 runtime) and the
 * metrics of Section 6.6.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.hh"
#include "core/metrics.hh"
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

TEST(Metrics, Ed2Definition)
{
    EXPECT_DOUBLE_EQ(ed2Of(8.0, 2.0), 1.0);
    // Halving throughput at constant power costs 8x in ED^2.
    EXPECT_NEAR(ed2Of(8.0, 1.0) / ed2Of(8.0, 2.0), 8.0, 1e-12);
}

TEST(Metrics, WeightedThroughputNormalises)
{
    // Paper metric: per-cycle IPC over reference IPC. A thread at its
    // reference IPC contributes 1, whatever its intrinsic IPC.
    std::vector<CoreWork> work(2);
    work[0].app = &findApplication("mcf");
    work[1].app = &findApplication("vortex");
    ChipCondition cond;
    cond.coreIpc = {work[0].app->ipcAt4GHz, work[1].app->ipcAt4GHz};
    cond.coreFreqHz = {4.0e9, 4.0e9};
    EXPECT_NEAR(weightedThroughput(cond, work), 2.0, 1e-12);
    // Low-IPC threads count equally: halving mcf's IPC costs 0.5.
    cond.coreIpc[0] /= 2.0;
    EXPECT_NEAR(weightedThroughput(cond, work), 1.5, 1e-12);
    // The per-cycle metric is clock-blind (the documented caveat)...
    cond.coreFreqHz[1] = 2.0e9;
    EXPECT_NEAR(weightedThroughput(cond, work), 1.5, 1e-12);
}

TEST(Metrics, WeightedProgressIsClockAware)
{
    std::vector<CoreWork> work(2);
    work[0].app = &findApplication("mcf");
    work[1].app = &findApplication("vortex");
    ChipCondition cond;
    cond.coreIpc = {work[0].app->ipcAt4GHz, work[1].app->ipcAt4GHz};
    cond.coreFreqHz = {4.0e9, 4.0e9};
    EXPECT_NEAR(weightedProgress(cond, work), 2.0, 1e-12);
    // ...while the progress variant charges for the lost cycles.
    cond.coreFreqHz[1] = 2.0e9;
    EXPECT_NEAR(weightedProgress(cond, work), 1.5, 1e-12);
}

TEST(Metrics, AverageFrequencySkipsIdleCores)
{
    std::vector<CoreWork> work(3);
    work[1].app = &findApplication("gap");
    ChipCondition cond;
    cond.coreFreqHz = {1.0e9, 3.0e9, 5.0e9};
    EXPECT_DOUBLE_EQ(averageActiveFrequency(cond, work), 3.0e9);
}

class SystemFixture : public ::testing::Test
{
  protected:
    SystemFixture() : die_(testParams(), 77) {}

    std::vector<const AppProfile *>
    workload(std::size_t n)
    {
        Rng rng(3);
        return randomWorkload(n, rng);
    }

    SystemConfig
    baseConfig()
    {
        SystemConfig c;
        c.durationMs = 100.0;
        c.ptargetW = 75.0;
        return c;
    }

    Die die_;
};

TEST_F(SystemFixture, NoDvfsRunsAtMaxLevels)
{
    SystemConfig c = baseConfig();
    c.pm = PmKind::None;
    SystemSimulator sim(die_, workload(8), c);
    const auto r = sim.run();
    EXPECT_GT(r.avgMips, 0.0);
    EXPECT_GT(r.avgPowerW, 0.0);
    EXPECT_EQ(r.exactTicks + r.sampledTicks, 100u);
    EXPECT_DOUBLE_EQ(r.powerDeviation, 0.0);
}

TEST_F(SystemFixture, UniformFrequencyIsSlower)
{
    SystemConfig c = baseConfig();
    c.pm = PmKind::None;
    c.sched = SchedAlgo::Random;

    SystemConfig uni = c;
    uni.uniformFrequency = true;

    SystemSimulator simN(die_, workload(20), c);
    SystemSimulator simU(die_, workload(20), uni);
    const auto rn = simN.run();
    const auto ru = simU.run();
    // Section 7.4: NUniFreq raises average frequency (~15%) and
    // power (~10%) over UniFreq at full occupancy.
    EXPECT_GT(rn.avgFreqHz, ru.avgFreqHz * 1.05);
    EXPECT_GT(rn.avgPowerW, ru.avgPowerW);
    EXPECT_GT(rn.avgMips, ru.avgMips);
}

TEST_F(SystemFixture, FoxtonMeetsBudget)
{
    SystemConfig c = baseConfig();
    c.pm = PmKind::FoxtonStar;
    SystemSimulator sim(die_, workload(20), c);
    const auto r = sim.run();
    EXPECT_LT(r.avgPowerW, c.ptargetW * 1.10);
    EXPECT_LT(r.powerDeviation, 0.15);
}

TEST_F(SystemFixture, LinOptBeatsFoxtonAtSameBudget)
{
    SystemConfig fox = baseConfig();
    fox.pm = PmKind::FoxtonStar;
    fox.sched = SchedAlgo::VarFAppIPC;
    SystemConfig lin = fox;
    lin.pm = PmKind::LinOpt;

    SystemSimulator simF(die_, workload(20), fox);
    SystemSimulator simL(die_, workload(20), lin);
    const auto rf = simF.run();
    const auto rl = simL.run();
    EXPECT_GT(rl.avgMips, rf.avgMips * 1.01);
    EXPECT_LT(rl.ed2, rf.ed2);
    EXPECT_LT(rl.avgPowerW, fox.ptargetW * 1.10);
}

TEST_F(SystemFixture, SchedulingAloneSavesPowerLightLoad)
{
    // VarP picks the lowest-leakage cores; with 4 threads on 20
    // cores it must burn less than Random on the same workload.
    SystemConfig rnd = baseConfig();
    rnd.pm = PmKind::None;
    rnd.sched = SchedAlgo::Random;
    SystemConfig varp = rnd;
    varp.sched = SchedAlgo::VarP;

    Summary relPower;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        rnd.seed = varp.seed = seed;
        const auto apps = workload(4);
        SystemSimulator simR(die_, apps, rnd);
        SystemSimulator simV(die_, apps, varp);
        relPower.add(simV.run().avgPowerW / simR.run().avgPowerW);
    }
    EXPECT_LT(relPower.mean(), 0.99);
}

TEST_F(SystemFixture, DeterministicGivenSeed)
{
    SystemConfig c = baseConfig();
    c.pm = PmKind::LinOpt;
    c.seed = 99;
    SystemSimulator a(die_, workload(8), c);
    SystemSimulator b(die_, workload(8), c);
    const auto ra = a.run();
    const auto rb = b.run();
    EXPECT_DOUBLE_EQ(ra.avgMips, rb.avgMips);
    EXPECT_DOUBLE_EQ(ra.avgPowerW, rb.avgPowerW);
}

TEST_F(SystemFixture, ShorterDvfsIntervalTracksTargetBetter)
{
    // Fig 14: less frequent LinOpt runs -> larger deviation.
    SystemConfig fast = baseConfig();
    fast.pm = PmKind::LinOpt;
    fast.durationMs = 400.0;
    fast.dvfsIntervalMs = 10.0;
    SystemConfig slow = fast;
    slow.dvfsIntervalMs = 200.0;

    Summary fastDev, slowDev;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        fast.seed = slow.seed = seed;
        const auto apps = workload(20);
        SystemSimulator sf(die_, apps, fast);
        SystemSimulator ss(die_, apps, slow);
        fastDev.add(sf.run().powerDeviation);
        slowDev.add(ss.run().powerDeviation);
    }
    EXPECT_LT(fastDev.mean(), slowDev.mean());
}

TEST_F(SystemFixture, EnergyAccountingConsistent)
{
    SystemConfig c = baseConfig();
    c.pm = PmKind::None;
    SystemSimulator sim(die_, workload(8), c);
    const auto r = sim.run();
    EXPECT_NEAR(r.energyJ, r.avgPowerW * c.durationMs * 1e-3,
                0.01 * r.energyJ);
    EXPECT_NEAR(r.instructions,
                r.avgMips * 1e6 * c.durationMs * 1e-3,
                0.01 * r.instructions);
}

TEST(Experiment, EnvOverridesParse)
{
    EXPECT_EQ(envSize("VARSCHED_SURELY_UNSET_X", 7u), 7u);
    setenv("VARSCHED_TEST_ENV", "13", 1);
    EXPECT_EQ(envSize("VARSCHED_TEST_ENV", 7u), 13u);
    setenv("VARSCHED_TEST_ENV", "bogus", 1);
    EXPECT_EQ(envSize("VARSCHED_TEST_ENV", 7u), 7u);
    unsetenv("VARSCHED_TEST_ENV");
}

TEST(Experiment, RunBatchPairsConfigs)
{
    BatchConfig batch;
    batch.dieParams = testParams();
    batch.numDies = 2;
    batch.numTrials = 2;

    std::vector<SystemConfig> configs(2);
    configs[0].sched = SchedAlgo::Random;
    configs[1].sched = SchedAlgo::VarFAppIPC;
    for (auto &c : configs) {
        c.pm = PmKind::None;
        c.durationMs = 50.0;
    }

    const auto r = runBatch(batch, 8, configs);
    ASSERT_EQ(r.absolute.size(), 2u);
    EXPECT_EQ(r.absolute[0].mips.count(), 4u);
    // Baseline's relative metrics are identically 1.
    EXPECT_NEAR(r.relative[0].mips.mean(), 1.0, 1e-12);
    EXPECT_NEAR(r.relative[0].mips.stddev(), 0.0, 1e-12);
    // VarF&AppIPC should not lose throughput vs Random.
    EXPECT_GE(r.relative[1].mips.mean(), 1.0);
}

} // namespace
} // namespace varsched
