/**
 * @file
 * Tests for the chip evaluator (physics) and the sensor snapshot:
 * fixed-point settling, power accounting, idle gating, frequency
 * caps, and snapshot consistency.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "chip/sensors.hh"

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

class SensorsFixture : public ::testing::Test
{
  protected:
    SensorsFixture() : die_(testParams(), 11), evaluator_(die_) {}

    std::vector<CoreWork>
    fullLoad() const
    {
        std::vector<CoreWork> work(die_.numCores());
        const auto &apps = specApplications();
        for (std::size_t c = 0; c < work.size(); ++c)
            work[c].app = &apps[c % apps.size()];
        return work;
    }

    std::vector<int>
    levelsAll(int level) const
    {
        return std::vector<int>(die_.numCores(), level);
    }

    Die die_;
    ChipEvaluator evaluator_;
};

TEST_F(SensorsFixture, IdleChipBurnsOnlyUncore)
{
    std::vector<CoreWork> idle(die_.numCores());
    const auto cond = evaluator_.evaluate(idle, levelsAll(8));
    for (double p : cond.corePowerW)
        EXPECT_DOUBLE_EQ(p, 0.0);
    EXPECT_GT(cond.l2PowerW, 0.0);
    EXPECT_NEAR(cond.totalPowerW, cond.l2PowerW, 1e-9);
    EXPECT_DOUBLE_EQ(cond.totalMips, 0.0);
}

TEST_F(SensorsFixture, FullLoadSettlesHot)
{
    const auto cond = evaluator_.evaluate(fullLoad(), levelsAll(8));
    EXPECT_GT(cond.totalPowerW, 80.0);
    EXPECT_LT(cond.totalPowerW, 260.0);
    double hottest = 0.0;
    for (double t : cond.coreTempC)
        hottest = std::max(hottest, t);
    EXPECT_GT(hottest, 75.0);
    EXPECT_LE(hottest, 150.0);
    EXPECT_GT(cond.totalMips, 10000.0);
}

TEST_F(SensorsFixture, LowerVoltageLowersPowerAndThroughput)
{
    const auto hi = evaluator_.evaluate(fullLoad(), levelsAll(8));
    const auto lo = evaluator_.evaluate(fullLoad(), levelsAll(0));
    EXPECT_LT(lo.totalPowerW, hi.totalPowerW * 0.55);
    EXPECT_LT(lo.totalMips, hi.totalMips);
    EXPECT_GT(lo.totalMips, hi.totalMips * 0.4);
}

TEST_F(SensorsFixture, TotalsAreSumOfParts)
{
    const auto cond = evaluator_.evaluate(fullLoad(), levelsAll(4));
    double sumPower = cond.l2PowerW;
    double sumMips = 0.0;
    for (std::size_t c = 0; c < die_.numCores(); ++c) {
        sumPower += cond.corePowerW[c];
        sumMips += cond.coreMips[c];
    }
    EXPECT_NEAR(cond.totalPowerW, sumPower, 1e-9);
    EXPECT_NEAR(cond.totalMips, sumMips, 1e-9);
}

TEST_F(SensorsFixture, FrequencyCapApplies)
{
    const double cap = 2.0e9;
    const auto cond = evaluator_.evaluate(fullLoad(), levelsAll(8), cap);
    for (std::size_t c = 0; c < die_.numCores(); ++c)
        EXPECT_LE(cond.coreFreqHz[c], cap + 1.0);
}

TEST_F(SensorsFixture, MemoryBoundIpcRisesAtLowFrequency)
{
    CoreWork work;
    work.app = &findApplication("mcf");
    EXPECT_GT(ChipEvaluator::ipcOf(*work.app, work, 2.0e9),
              ChipEvaluator::ipcOf(*work.app, work, 4.0e9));
}

TEST_F(SensorsFixture, PhaseScalesAffectIpcAndPower)
{
    CoreWork base, burst;
    base.app = burst.app = &findApplication("gzip");
    burst.cpiScale = 0.7;
    burst.missScale = 0.4;
    burst.activityScale = 1.2;
    EXPECT_GT(ChipEvaluator::ipcOf(*burst.app, burst, 4.0e9),
              ChipEvaluator::ipcOf(*base.app, base, 4.0e9));
    EXPECT_GT(evaluator_.dynamicPower(burst, 1.0, 4.0e9),
              evaluator_.dynamicPower(base, 1.0, 4.0e9));
}

TEST_F(SensorsFixture, SnapshotCoversActiveCoresOnly)
{
    std::vector<CoreWork> work(die_.numCores());
    work[3].app = &findApplication("mcf");
    work[7].app = &findApplication("vortex");
    const auto cond = evaluator_.evaluate(work, levelsAll(8));
    const auto snap =
        buildSnapshot(evaluator_, work, cond, 75.0, 7.5, nullptr);
    ASSERT_EQ(snap.cores.size(), 2u);
    EXPECT_EQ(snap.cores[0].coreId, 3u);
    EXPECT_EQ(snap.cores[1].coreId, 7u);
    EXPECT_EQ(snap.freqRow(0).size(), die_.numLevels());
}

TEST_F(SensorsFixture, SnapshotPowerMatchesConditionAtSameLevels)
{
    // Sensor power at the settled temperature equals the physical
    // core power at the same operating point (noise disabled).
    const auto work = fullLoad();
    const auto cond = evaluator_.evaluate(work, levelsAll(8));
    const auto snap =
        buildSnapshot(evaluator_, work, cond, 75.0, 7.5, nullptr);
    const std::vector<int> top(snap.cores.size(), 8);
    EXPECT_NEAR(snap.powerAt(top), cond.totalPowerW,
                0.01 * cond.totalPowerW);
}

TEST_F(SensorsFixture, SnapshotHelpersConsistent)
{
    const auto work = fullLoad();
    const auto cond = evaluator_.evaluate(work, levelsAll(8));
    const auto snap =
        buildSnapshot(evaluator_, work, cond, 1000.0, 1000.0, nullptr);
    const std::vector<int> lo(snap.cores.size(), 0);
    const std::vector<int> hi(snap.cores.size(), 8);
    EXPECT_LT(snap.powerAt(lo), snap.powerAt(hi));
    EXPECT_LT(snap.mipsAt(lo), snap.mipsAt(hi));
    EXPECT_TRUE(snap.feasible(hi)); // budget 1 kW
    ChipSnapshot tight = snap;
    tight.ptargetW = snap.powerAt(lo) - 1.0;
    EXPECT_FALSE(tight.feasible(lo));
}

TEST_F(SensorsFixture, SensorNoiseIsSmall)
{
    const auto work = fullLoad();
    const auto cond = evaluator_.evaluate(work, levelsAll(8));
    Rng noise(3);
    const auto noisy =
        buildSnapshot(evaluator_, work, cond, 75.0, 7.5, &noise);
    const auto clean =
        buildSnapshot(evaluator_, work, cond, 75.0, 7.5, nullptr);
    for (std::size_t i = 0; i < clean.cores.size(); ++i) {
        for (std::size_t l = 0; l < die_.numLevels(); ++l) {
            EXPECT_NEAR(noisy.powerRow(i)[l],
                        clean.powerRow(i)[l],
                        0.06 * clean.powerRow(i)[l]);
        }
    }
}

TEST_F(SensorsFixture, SensorNoiseFollowsSequentialDrawOrder)
{
    // Per (core, level): an IPC draw, then a power draw, in
    // Rng::normal() order, whether the batch starts pair-aligned or
    // with a Box-Muller spare pending. The batched draws equal the
    // sequential ones within 1e-12 (bit for bit on the scalar path)
    // and leave the generator in the same state.
    std::vector<CoreWork> work = fullLoad();
    work[3].app = nullptr; // an idle core draws nothing
    const auto cond = evaluator_.evaluate(work, levelsAll(8));
    const auto clean =
        buildSnapshot(evaluator_, work, cond, 75.0, 7.5, nullptr);
    for (const bool spare : {false, true}) {
        Rng noise(5), sequential(5);
        if (spare) {
            (void)noise.normal();
            (void)sequential.normal();
        }
        const auto noisy =
            buildSnapshot(evaluator_, work, cond, 75.0, 7.5, &noise);
        ASSERT_EQ(noisy.cores.size(), clean.cores.size());
        for (std::size_t i = 0; i < clean.cores.size(); ++i) {
            for (std::size_t l = 0; l < die_.numLevels(); ++l) {
                const double ipc = clean.ipcRow(i)[l] *
                    (1.0 + 0.01 * sequential.normal());
                const double power = clean.powerRow(i)[l] *
                    (1.0 + 0.01 * sequential.normal());
                EXPECT_NEAR(noisy.ipcRow(i)[l], ipc, 1e-12 * ipc);
                EXPECT_NEAR(noisy.powerRow(i)[l], power,
                            1e-12 * power);
            }
        }
        EXPECT_EQ(noise.next(), sequential.next()) << "spare " << spare;
    }
}

} // namespace
} // namespace varsched
