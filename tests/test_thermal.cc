/**
 * @file
 * Tests for the thermal RC network: conservation, superposition,
 * locality of heating, and package calibration.
 */

#include <gtest/gtest.h>

#include <vector>

#include "thermal/thermal.hh"

namespace varsched
{
namespace
{

class ThermalFixture : public ::testing::Test
{
  protected:
    Floorplan plan_;
    ThermalModel model_{plan_};

    std::vector<double> zeroCores_ = std::vector<double>(20, 0.0);
    std::vector<double> zeroL2_ = std::vector<double>(2, 0.0);
};

TEST_F(ThermalFixture, NoPowerMeansAmbientEverywhere)
{
    const auto r = model_.solve(zeroCores_, zeroL2_);
    for (double t : r.coreTempC)
        EXPECT_NEAR(t, model_.params().ambientC, 1e-6);
    for (double t : r.l2TempC)
        EXPECT_NEAR(t, model_.params().ambientC, 1e-6);
    EXPECT_NEAR(r.sinkC, model_.params().ambientC, 1e-6);
}

TEST_F(ThermalFixture, HeatingRaisesAllTemperatures)
{
    auto cores = zeroCores_;
    cores[7] = 10.0;
    const auto r = model_.solve(cores, zeroL2_);
    for (double t : r.coreTempC)
        EXPECT_GT(t, model_.params().ambientC);
}

TEST_F(ThermalFixture, HeatedCoreIsHottest)
{
    auto cores = zeroCores_;
    cores[12] = 8.0;
    const auto r = model_.solve(cores, zeroL2_);
    for (std::size_t c = 0; c < 20; ++c) {
        if (c != 12) {
            EXPECT_LT(r.coreTempC[c], r.coreTempC[12]);
        }
    }
}

TEST_F(ThermalFixture, NeighboursWarmerThanFarCores)
{
    // Core 0 sits at a corner; core 1 is adjacent, core 19 is the
    // opposite corner.
    auto cores = zeroCores_;
    cores[0] = 10.0;
    const auto r = model_.solve(cores, zeroL2_);
    EXPECT_GT(r.coreTempC[1], r.coreTempC[19]);
}

TEST_F(ThermalFixture, SuperpositionHolds)
{
    // The network is linear: T(P1 + P2) - Tamb == (T(P1) - Tamb) +
    // (T(P2) - Tamb).
    auto p1 = zeroCores_;
    auto p2 = zeroCores_;
    p1[3] = 6.0;
    p2[16] = 4.0;
    auto p12 = zeroCores_;
    p12[3] = 6.0;
    p12[16] = 4.0;
    const double amb = model_.params().ambientC;
    const auto r1 = model_.solve(p1, zeroL2_);
    const auto r2 = model_.solve(p2, zeroL2_);
    const auto r12 = model_.solve(p12, zeroL2_);
    for (std::size_t c = 0; c < 20; ++c) {
        EXPECT_NEAR(r12.coreTempC[c] - amb,
                    (r1.coreTempC[c] - amb) + (r2.coreTempC[c] - amb),
                    1e-6);
    }
}

TEST_F(ThermalFixture, FullLoadLandsNearBinningTemperature)
{
    // ~7.5 W per core (dynamic + hot leakage) + L2 power should put
    // the hottest core near the paper's 95 C binning temperature.
    std::vector<double> cores(20, 7.5);
    std::vector<double> l2(2, 3.0);
    const auto r = model_.solve(cores, l2);
    double hottest = 0.0;
    for (double t : r.coreTempC)
        hottest = std::max(hottest, t);
    EXPECT_GT(hottest, 80.0);
    EXPECT_LT(hottest, 115.0);
}

TEST_F(ThermalFixture, PowerScalesTemperatureRise)
{
    std::vector<double> cores1(20, 2.0), cores2(20, 4.0);
    const double amb = model_.params().ambientC;
    const auto r1 = model_.solve(cores1, zeroL2_);
    const auto r2 = model_.solve(cores2, zeroL2_);
    for (std::size_t c = 0; c < 20; ++c) {
        EXPECT_NEAR(r2.coreTempC[c] - amb, 2.0 * (r1.coreTempC[c] - amb),
                    1e-6);
    }
}

TEST_F(ThermalFixture, L2PowerWarmsAdjacentTopRowMore)
{
    auto l2 = zeroL2_;
    l2[0] = 10.0;
    l2[1] = 10.0;
    const auto r = model_.solve(zeroCores_, l2);
    // Top core row (15..19) borders the L2 stripes; bottom row (0..4)
    // is farthest.
    EXPECT_GT(r.coreTempC[17], r.coreTempC[2]);
}

TEST_F(ThermalFixture, SinkBetweenAmbientAndCores)
{
    std::vector<double> cores(20, 5.0);
    const auto r = model_.solve(cores, zeroL2_);
    EXPECT_GT(r.sinkC, model_.params().ambientC);
    double coolest = 1e300;
    for (double t : r.coreTempC)
        coolest = std::min(coolest, t);
    EXPECT_GT(coolest, r.sinkC);
}

} // namespace
} // namespace varsched
