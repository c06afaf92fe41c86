/**
 * @file
 * Tests for the transient thermal solver and the transient chip
 * evaluation mode: convergence to the steady state, time-constant
 * ordering (silicon fast, package slow), and system integration.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "chip/sensors.hh"
#include "core/system.hh"
#include "thermal/thermal.hh"

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

class TransientFixture : public ::testing::Test
{
  protected:
    Floorplan plan_;
    ThermalModel model_{plan_};
    std::vector<double> cores_ = std::vector<double>(20, 5.0);
    std::vector<double> l2_ = std::vector<double>(2, 2.0);
};

TEST_F(TransientFixture, ConvergesToSteadyState)
{
    const ThermalResult steady = model_.solve(cores_, l2_);

    ThermalResult state;
    state.coreTempC.assign(20, model_.params().ambientC);
    state.l2TempC.assign(2, model_.params().ambientC);
    state.spreaderC = model_.params().ambientC;
    state.sinkC = model_.params().ambientC;

    // Integrate ~12 minutes of constant power: several times the
    // slowest pole (the sink discharging to ambient, tau ~2 min).
    for (int i = 0; i < 7000; ++i)
        model_.transientStep(state, cores_, l2_, 100.0);

    for (std::size_t c = 0; c < 20; ++c)
        EXPECT_NEAR(state.coreTempC[c], steady.coreTempC[c], 0.5);
    EXPECT_NEAR(state.sinkC, steady.sinkC, 0.5);
}

TEST_F(TransientFixture, SiliconRespondsFasterThanPackage)
{
    ThermalResult state;
    state.coreTempC.assign(20, model_.params().ambientC);
    state.l2TempC.assign(2, model_.params().ambientC);
    state.spreaderC = model_.params().ambientC;
    state.sinkC = model_.params().ambientC;

    const ThermalResult steady = model_.solve(cores_, l2_);
    // After 100 ms the silicon has covered most of its local rise,
    // while the sink has barely moved.
    for (int i = 0; i < 100; ++i)
        model_.transientStep(state, cores_, l2_, 1.0);
    const double coreRise = state.coreTempC[7] -
        model_.params().ambientC;
    const double coreSteadyRise =
        steady.coreTempC[7] - model_.params().ambientC;
    const double sinkRise = state.sinkC - model_.params().ambientC;
    const double sinkSteadyRise =
        steady.sinkC - model_.params().ambientC;
    EXPECT_GT(coreRise, 0.1 * coreSteadyRise);
    EXPECT_LT(sinkRise, 0.2 * sinkSteadyRise);
}

TEST_F(TransientFixture, ZeroPowerCoolsTowardAmbient)
{
    ThermalResult state = model_.solve(cores_, l2_);
    const std::vector<double> zero20(20, 0.0), zero2(2, 0.0);
    const double hotBefore = state.coreTempC[7];
    for (int i = 0; i < 50; ++i)
        model_.transientStep(state, zero20, zero2, 1.0);
    EXPECT_LT(state.coreTempC[7], hotBefore);
    EXPECT_GE(state.coreTempC[7], model_.params().ambientC - 1e-6);
}

TEST_F(TransientFixture, ShortStepBarelyMoves)
{
    ThermalResult state = model_.solve(cores_, l2_);
    ThermalResult before = state;
    std::vector<double> doubled(20, 10.0);
    model_.transientStep(state, doubled, l2_, 0.01); // 10 us
    for (std::size_t c = 0; c < 20; ++c)
        EXPECT_NEAR(state.coreTempC[c], before.coreTempC[c], 0.1);
}

TEST(TransientChip, EvaluateTransientApproachesSteadyState)
{
    const Die die(testParams(), 19);
    ChipEvaluator evaluator(die);
    std::vector<CoreWork> work(die.numCores());
    const auto &apps = specApplications();
    for (std::size_t c = 0; c < die.numCores(); ++c)
        work[c].app = &apps[c % apps.size()];
    std::vector<int> levels(die.numCores(),
                            static_cast<int>(die.maxLevel()));

    const auto steady = evaluator.evaluate(work, levels);

    // Start from a cool chip and integrate ~12 minutes (the sink
    // pole is ~2 minutes).
    ChipCondition cond;
    cond.coreTempC.assign(die.numCores(),
                          die.params().thermal.ambientC);
    cond.l2TempC.assign(2, die.params().thermal.ambientC);
    cond.spreaderC = cond.sinkC = die.params().thermal.ambientC;
    for (int i = 0; i < 7000; ++i)
        cond = evaluator.evaluateTransient(work, levels, cond, 100.0);

    EXPECT_NEAR(cond.totalPowerW, steady.totalPowerW,
                0.03 * steady.totalPowerW);
    // All-cores-at-max runs this die near thermal runaway, where the
    // steady solver's Newton fixed point and the transient
    // integration's leakage lag settle a few degrees apart; a 4 C
    // band at ~125 C is agreement for this regime.
    for (std::size_t c = 0; c < die.numCores(); ++c)
        EXPECT_NEAR(cond.coreTempC[c], steady.coreTempC[c], 4.0);
}

TEST(TransientChip, ColdChipBurnsLessThanSettledChip)
{
    // Right after power-on the silicon is cool, so leakage (and total
    // power) sit below the settled values — the transient mode
    // captures the warm-up the steady-state mode skips.
    const Die die(testParams(), 19);
    ChipEvaluator evaluator(die);
    std::vector<CoreWork> work(die.numCores());
    const auto &apps = specApplications();
    for (std::size_t c = 0; c < die.numCores(); ++c)
        work[c].app = &apps[c % apps.size()];
    std::vector<int> levels(die.numCores(),
                            static_cast<int>(die.maxLevel()));

    ChipCondition cond;
    cond.coreTempC.assign(die.numCores(),
                          die.params().thermal.ambientC);
    cond.l2TempC.assign(2, die.params().thermal.ambientC);
    cond.spreaderC = cond.sinkC = die.params().thermal.ambientC;
    cond = evaluator.evaluateTransient(work, levels, cond, 1.0);

    const auto steady = evaluator.evaluate(work, levels);
    EXPECT_LT(cond.totalPowerW, steady.totalPowerW);
}

TEST(TransientChip, SystemRunsInTransientMode)
{
    const Die die(testParams(), 23);
    Rng rng(3);
    const auto apps = randomWorkload(10, rng);
    SystemConfig c;
    c.pm = PmKind::LinOpt;
    c.ptargetW = 40.0;
    c.durationMs = 120.0;
    c.transientThermal = true;
    SystemSimulator sim(die, apps, c);
    const auto r = sim.run();
    EXPECT_GT(r.avgMips, 0.0);
    EXPECT_GT(r.avgPowerW, 5.0);
    EXPECT_LT(r.avgPowerW, 60.0);
    EXPECT_LT(r.maxCoreTempC, 150.0);
}

} // namespace
} // namespace varsched
