/**
 * @file
 * Tests for the fault-injection subsystem and the degradation-aware
 * power-management stack: FaultInjector schedules, SensorValidator
 * quarantine/substitution/recovery, the GuardedPowerManager fallback
 * chain, SystemConfig validation, and the end-to-end robustness
 * scenario of the issue (stuck power sensor + 1% DVFS actuation
 * failures under guarded LinOpt).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>

#include "chip/sensors.hh"
#include "core/guarded.hh"
#include "core/linopt.hh"
#include "core/system.hh"
#include "fault/fault.hh"
#include "fault/validate.hh"

namespace varsched
{
namespace
{

/** Same hand-built snapshot as test_pm: n identical cores, 5 levels
 *  (0.6-1.0 V), quadratic power, 2 W uncore. */
ChipSnapshot
syntheticSnapshot(std::size_t n, double ptarget, double pcoremax,
                  double ipc = 1.0)
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
            snap.ipc.push_back(ipc);
            snap.powerW.push_back(5.0 * v * v);
        }
        snap.cores.push_back(core);
    }
    return snap;
}

/** A copy of one snapshot row, for whole-curve comparisons. */
std::vector<double>
curve(std::span<const double> row)
{
    return {row.begin(), row.end()};
}

/**
 * Settled condition with a given chip total. Pass as @p coreW the
 * synthetic snapshot's reading at the commanded level — 5 W at the
 * top, 5 * 0.6^2 W at the bottom — so the guard's settled-vs-sensed
 * cross-check stays quiet; the chip total alone carries the
 * violation signal.
 */
ChipCondition
settledCondition(std::size_t n, double totalW, double coreW = 5.0)
{
    ChipCondition cond;
    cond.totalPowerW = totalW;
    cond.corePowerW.assign(n, coreW);
    return cond;
}

// ---------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------

TEST(FaultInjector, StuckAtOnlyInsideWindowAndOnItsCore)
{
    FaultSpec spec;
    spec.sensorFaults.push_back(
        {SensorFaultKind::StuckAt, 1, 10.0, 20.0, 2.5, 1.0});
    FaultInjector inj(spec, 42);

    inj.advanceTo(5.0);
    EXPECT_DOUBLE_EQ(inj.tamperPower(1, 0, 7.0), 7.0);
    inj.advanceTo(10.0);
    EXPECT_DOUBLE_EQ(inj.tamperPower(1, 0, 7.0), 2.5);
    EXPECT_DOUBLE_EQ(inj.tamperPower(1, 4, 9.0), 2.5);
    EXPECT_DOUBLE_EQ(inj.tamperPower(0, 0, 7.0), 7.0); // other core
    inj.advanceTo(20.0); // endMs is exclusive of the fault
    EXPECT_DOUBLE_EQ(inj.tamperPower(1, 0, 7.0), 7.0);
    EXPECT_EQ(inj.readingsTampered(), 2u);
}

TEST(FaultInjector, DropoutAndDriftSemantics)
{
    FaultSpec spec;
    spec.sensorFaults.push_back(
        {SensorFaultKind::Dropout, 0, 0.0, -1.0, 0.0, 1.0});
    spec.sensorFaults.push_back(
        {SensorFaultKind::Drift, 1, 10.0, -1.0, 0.1, 1.0});
    FaultInjector inj(spec, 42);

    inj.advanceTo(40.0);
    EXPECT_DOUBLE_EQ(inj.tamperPower(0, 2, 6.0), 0.0);
    // 30 ms past onset at 0.1 W/ms: +3 W.
    EXPECT_NEAR(inj.tamperPower(1, 2, 6.0), 9.0, 1e-12);
}

TEST(FaultInjector, SpikeTraceIsSeedDeterministic)
{
    FaultSpec spec;
    spec.sensorFaults.push_back(
        {SensorFaultKind::Spike, 0, 0.0, -1.0, 10.0, 0.3});
    FaultInjector a(spec, 7);
    FaultInjector b(spec, 7);
    bool spiked = false;
    for (int i = 0; i < 200; ++i) {
        const double ra = a.tamperPower(0, 0, 1.0);
        const double rb = b.tamperPower(0, 0, 1.0);
        EXPECT_DOUBLE_EQ(ra, rb);
        if (ra > 1.0)
            spiked = true;
    }
    EXPECT_TRUE(spiked);
    EXPECT_EQ(a.readingsTampered(), 200u);
}

TEST(FaultInjector, ActuationFaultsDropOrShortenTransitions)
{
    FaultSpec drop;
    drop.dvfs.failRate = 1.0;
    FaultInjector injDrop(drop, 1);
    EXPECT_EQ(injDrop.actuate(0, 2, 4), 2); // silently not applied
    EXPECT_EQ(injDrop.actuate(0, 2, 2), 2); // no-op draws nothing
    EXPECT_EQ(injDrop.dvfsFaultsInjected(), 1u);

    FaultSpec shortStep;
    shortStep.dvfs.shortStepRate = 1.0;
    FaultInjector injShort(shortStep, 1);
    EXPECT_EQ(injShort.actuate(0, 1, 4), 3); // one short, going up
    EXPECT_EQ(injShort.actuate(0, 3, 0), 1); // one short, going down
    EXPECT_EQ(injShort.dvfsFaultsInjected(), 2u);
}

TEST(FaultInjector, EmptySpecIsTransparent)
{
    FaultInjector inj(FaultSpec{}, 99);
    inj.advanceTo(50.0);
    EXPECT_DOUBLE_EQ(inj.tamperPower(3, 1, 4.2), 4.2);
    EXPECT_EQ(inj.actuate(3, 0, 4), 4);
    EXPECT_EQ(inj.readingsTampered(), 0u);
    EXPECT_EQ(inj.dvfsFaultsInjected(), 0u);
    EXPECT_FALSE(inj.coreFailed(3));
    EXPECT_EQ(inj.coresFailed(), 0u);
}

TEST(FaultInjector, CoreFailurePermanentAndDeduplicated)
{
    FaultSpec spec;
    spec.coreFailures.push_back({4, 30.0});
    spec.coreFailures.push_back({4, 60.0}); // same core again
    spec.coreFailures.push_back({9, 80.0});
    FaultInjector inj(spec, 1);

    inj.advanceTo(29.0);
    EXPECT_FALSE(inj.coreFailed(4));
    inj.advanceTo(30.0);
    EXPECT_TRUE(inj.coreFailed(4));
    EXPECT_EQ(inj.coresFailed(), 1u);
    inj.advanceTo(100.0);
    EXPECT_TRUE(inj.coreFailed(4));
    EXPECT_TRUE(inj.coreFailed(9));
    EXPECT_EQ(inj.coresFailed(), 2u); // core 4 counted once
}

// ---------------------------------------------------------------------
// SensorValidator
// ---------------------------------------------------------------------

TEST(SensorValidator, FlatCurveQuarantinedAndLastGoodSubstituted)
{
    SensorValidator val;
    auto snap = syntheticSnapshot(2, 100.0, 10.0);
    const std::vector<double> goodCurve = curve(snap.powerRow(0));
    EXPECT_EQ(val.sanitise(snap), 0u);

    auto bad = syntheticSnapshot(2, 100.0, 10.0);
    std::ranges::fill(bad.powerRow(0), 1.0); // stuck sensor: flat curve
    EXPECT_EQ(val.sanitise(bad), 1u);
    EXPECT_EQ(curve(bad.powerRow(0)), goodCurve); // fresh last-good
    EXPECT_TRUE(val.health(0).quarantined);
    EXPECT_FALSE(val.health(1).quarantined);
    EXPECT_FALSE(val.allTrusted());
    EXPECT_EQ(val.quarantineEvents(), 1u);
}

TEST(SensorValidator, DropoutAndImplausibleJumpCaught)
{
    SensorValidator val;
    auto snap = syntheticSnapshot(2, 100.0, 10.0);
    EXPECT_EQ(val.sanitise(snap), 0u);

    auto dead = syntheticSnapshot(2, 100.0, 10.0);
    std::ranges::fill(dead.powerRow(0), 0.0); // offline sensor
    for (auto &p : dead.powerRow(1))
        p *= 2.5; // 150% jump between consecutive snapshots
    EXPECT_EQ(val.sanitise(dead), 2u);
    EXPECT_TRUE(val.health(0).quarantined);
    EXPECT_TRUE(val.health(1).quarantined);
}

TEST(SensorValidator, StaleLastGoodFallsBackToPessimisticCurve)
{
    SensorValidator val;
    auto good = syntheticSnapshot(1, 100.0, 10.0);
    val.sanitise(good);

    constexpr int kStale = SensorValidator::kMaxStaleIntervals;
    for (int i = 0; i <= kStale; ++i) {
        auto bad = syntheticSnapshot(1, 100.0, 10.0);
        std::ranges::fill(bad.powerRow(0), 1.0);
        val.sanitise(bad);
        if (i < kStale) {
            EXPECT_DOUBLE_EQ(bad.powerRow(0).back(), 5.0);
        } else {
            // Last-good expired: pessimistic cap-at-top curve.
            EXPECT_DOUBLE_EQ(bad.powerRow(0).back(), 10.0);
            EXPECT_DOUBLE_EQ(bad.powerRow(0).front(),
                             10.0 * 0.36);
        }
    }
}

TEST(SensorValidator, RecoversAfterConsecutiveCleanChecks)
{
    SensorValidator val; // recoverAfter = 3
    auto good = syntheticSnapshot(1, 100.0, 10.0);
    val.sanitise(good);
    auto bad = syntheticSnapshot(1, 100.0, 10.0);
    std::ranges::fill(bad.powerRow(0), 1.0);
    val.sanitise(bad);
    EXPECT_TRUE(val.health(0).quarantined);

    for (int i = 0; i < 3; ++i) {
        auto again = syntheticSnapshot(1, 100.0, 10.0);
        const std::size_t substituted = val.sanitise(again);
        if (i < 2)
            EXPECT_EQ(substituted, 1u); // hysteresis holds
        else
            EXPECT_EQ(substituted, 0u);
    }
    EXPECT_TRUE(val.allTrusted());
    EXPECT_EQ(val.quarantineEvents(), 1u);
}

TEST(SensorValidator, SettledPowerMismatchQuarantines)
{
    SensorValidator val;
    auto snap = syntheticSnapshot(2, 100.0, 10.0);
    val.sanitise(snap);
    EXPECT_TRUE(val.allTrusted());

    val.reportMismatch(1); // guard saw settled != sensed
    EXPECT_TRUE(val.health(1).quarantined);
    auto next = syntheticSnapshot(2, 100.0, 10.0);
    EXPECT_EQ(val.sanitise(next), 1u); // substituted despite looking OK
}

// ---------------------------------------------------------------------
// GuardedPowerManager
// ---------------------------------------------------------------------

TEST(GuardedPm, TransparentWhenEverythingHealthy)
{
    const auto snap = syntheticSnapshot(4, 14.0, 100.0);
    LinOptManager plain;
    GuardedPowerManager guarded(std::make_unique<LinOptManager>());
    EXPECT_EQ(guarded.name(), "Guarded(LinOpt)");
    EXPECT_EQ(guarded.selectLevels(snap), plain.selectLevels(snap));
    EXPECT_EQ(guarded.tier(), GuardTier::Primary);
    EXPECT_EQ(guarded.stats().decisionOverrides, 0u);
}

TEST(GuardedPm, OverridesBudgetBustingPrimaryDecision)
{
    // A primary that ignores the budget entirely: 4 x 5 W + 2 W
    // uncore = 22 W against a 14 W target.
    const auto snap = syntheticSnapshot(4, 14.0, 100.0);
    GuardedPowerManager guarded(std::make_unique<MaxLevelManager>());
    const auto levels = guarded.selectLevels(snap);
    EXPECT_LE(snap.powerAt(levels), 14.0 + 1e-9);
    EXPECT_EQ(guarded.stats().decisionOverrides, 1u);
    EXPECT_EQ(guarded.tier(), GuardTier::Primary); // no settled evidence yet
}

TEST(GuardedPm, DegradesThroughChainAndRecoversWithHysteresis)
{
    constexpr int kDegrade = GuardedPowerManager::kDegradeAfter;
    constexpr int kRecover = GuardedPowerManager::kRecoverAfter;
    // Generous snapshot budget so the decision override stays out of
    // the picture; the settled feedback alone drives the tiers. The
    // primary and Foxton* both command the top level, safe mode the
    // bottom one, and every settled condition reports the per-core
    // power the sensors promised at those levels.
    const auto snap = syntheticSnapshot(3, 100.0, 100.0);
    GuardedPowerManager guarded(std::make_unique<MaxLevelManager>());
    const auto violating = settledCondition(3, 90.0);
    const auto clean = settledCondition(3, 70.0);
    const auto cleanSafe = settledCondition(3, 70.0, 5.0 * 0.6 * 0.6);

    guarded.selectLevels(snap);
    for (int i = 0; i < kDegrade - 1; ++i)
        guarded.observeSettled(violating, 75.0, 100.0);
    EXPECT_EQ(guarded.tier(), GuardTier::Primary);
    guarded.observeSettled(violating, 75.0, 100.0);
    EXPECT_EQ(guarded.tier(), GuardTier::Fallback);
    EXPECT_EQ(guarded.stats().fallbackEngagements, 1u);

    // Stale violations before the new tier's decision applies must
    // not cascade the degradation further.
    for (int i = 0; i < 2 * kDegrade; ++i)
        guarded.observeSettled(violating, 75.0, 100.0);
    EXPECT_EQ(guarded.tier(), GuardTier::Fallback);

    // Fallback decision applied, still violating: safe mode.
    EXPECT_EQ(guarded.selectLevels(snap), (std::vector<int>{4, 4, 4}));
    for (int i = 0; i < kDegrade; ++i)
        guarded.observeSettled(violating, 75.0, 100.0);
    EXPECT_EQ(guarded.tier(), GuardTier::SafeMode);
    EXPECT_EQ(guarded.stats().fallbackEngagements, 2u);
    EXPECT_EQ(guarded.selectLevels(snap),
              (std::vector<int>{0, 0, 0}));

    // Clean ticks climb back one tier per hysteresis window.
    for (int i = 0; i < kRecover - 1; ++i)
        guarded.observeSettled(cleanSafe, 75.0, 100.0);
    EXPECT_EQ(guarded.tier(), GuardTier::SafeMode);
    guarded.observeSettled(cleanSafe, 75.0, 100.0);
    EXPECT_EQ(guarded.tier(), GuardTier::Fallback);
    guarded.selectLevels(snap);
    for (int i = 0; i < kRecover; ++i)
        guarded.observeSettled(clean, 75.0, 100.0);
    EXPECT_EQ(guarded.tier(), GuardTier::Primary);
    EXPECT_EQ(guarded.stats().recoveries, 1u);
    // Settled and sensed power agreed at every commanded level.
    EXPECT_EQ(guarded.sensorQuarantines(), 0u);
}

TEST(GuardedPm, CrossCheckCatchesPlausibleButWrongSensor)
{
    // A sensor whose curve *shape* is perfectly plausible but whose
    // values are half the real power passes every validator check —
    // only the settled-power cross-check at the next snapshot can
    // catch it.
    GuardedPowerManager guarded(std::make_unique<LinOptManager>());
    auto snap = syntheticSnapshot(3, 100.0, 100.0);
    const auto levels = guarded.selectLevels(snap); // all top: 5 W each
    ASSERT_EQ(levels, (std::vector<int>{4, 4, 4}));

    ChipCondition cond;
    cond.totalPowerW = 22.0;
    cond.corePowerW = {5.0, 5.0, 10.0}; // core 2 settles at 2x sensed
    guarded.observeSettled(cond, 100.0, 100.0);

    guarded.selectLevels(snap);
    EXPECT_TRUE(guarded.validator().health(2).quarantined);
    EXPECT_FALSE(guarded.validator().health(0).quarantined);
    EXPECT_EQ(guarded.tier(), GuardTier::Fallback);
}

TEST(GuardedPm, SettleBiasShavesTheEffectiveBudget)
{
    // A chip that settles 4 W above every prediction: the guard
    // learns the bias and steers the managers below Ptarget by it.
    const auto snap = syntheticSnapshot(3, 18.0, 100.0);
    GuardedPowerManager guarded(std::make_unique<LinOptManager>());
    const auto first = guarded.selectLevels(snap);
    EXPECT_DOUBLE_EQ(guarded.settleBiasW(), 0.0);

    // Every core settles where its sensor said it would at the
    // commanded level, so the cross-check stays quiet; only the chip
    // total runs over.
    ChipCondition cond = settledCondition(3, snap.powerAt(first) + 4.0);
    for (std::size_t i = 0; i < first.size(); ++i)
        cond.corePowerW[i] =
            snap.powerRow(i)[static_cast<std::size_t>(first[i])];
    guarded.observeSettled(cond, 18.0, 100.0);
    EXPECT_NEAR(guarded.settleBiasW(),
                GuardedPowerManager::kBiasGain * 4.0, 1e-12);

    const auto second = guarded.selectLevels(snap);
    EXPECT_TRUE(guarded.validator().allTrusted());
    EXPECT_EQ(guarded.tier(), GuardTier::Primary);
    // The shaved budget forces a strictly cheaper operating point.
    EXPECT_LT(snap.powerAt(second), snap.powerAt(first));
}

TEST(GuardedPm, PerCoreCapViolationAlsoCountsAsViolated)
{
    const auto snap = syntheticSnapshot(2, 100.0, 100.0);
    GuardedPowerManager guarded(std::make_unique<MaxLevelManager>());
    guarded.selectLevels(snap);

    // Under budget, and a core at 7 W stays within the tolerance
    // above a 6 W per-core cap: clean.
    ChipCondition cond = settledCondition(2, 40.0);
    cond.corePowerW[1] = 7.0;
    guarded.observeSettled(cond, 75.0, 6.0);
    EXPECT_EQ(guarded.stats().violations, 0u);

    cond.corePowerW[1] = 9.0; // way past the cap
    for (int i = 0; i < GuardedPowerManager::kDegradeAfter; ++i) {
        EXPECT_EQ(guarded.tier(), GuardTier::Primary);
        guarded.observeSettled(cond, 75.0, 6.0);
    }
    EXPECT_EQ(guarded.tier(), GuardTier::Fallback);
    EXPECT_EQ(guarded.stats().violations,
              static_cast<std::size_t>(GuardedPowerManager::kDegradeAfter));
}

TEST(GuardedPm, OneCallOverTicksEqualsSingleTickCalls)
{
    constexpr double kPtargetW = 75.0, kPcoreMaxW = 6.0, kTickMs = 0.1;
    constexpr auto kRecover =
        static_cast<std::size_t>(GuardedPowerManager::kRecoverAfter);
    const auto snap = syntheticSnapshot(3, 100.0, 100.0);
    const auto overBudget = settledCondition(3, 90.0);
    auto overCoreCap = settledCondition(3, 40.0);
    overCoreCap.corePowerW[1] = 9.0;
    // Per-core readings of 0 W opt out of the settled-vs-sensed
    // cross-check, so the sensors stay trusted and the guard can
    // climb all the way back to the primary.
    const auto clean = settledCondition(3, 70.0, 0.0);

    // Runs of k identical ticks, the streaks carried from one run to
    // the next: k = 2 degrades at the first tick of a run, k >= 3
    // inside one, k > 30 recovers inside one.
    for (std::size_t k : {1u, 2u, 3u, 4u, 29u, 31u, 61u}) {
        GuardedPowerManager batched(std::make_unique<MaxLevelManager>());
        GuardedPowerManager single(std::make_unique<MaxLevelManager>());
        std::size_t tick = 7;
        const auto observe = [&](const ChipCondition &cond,
                                 std::size_t ticks) {
            batched.observeSettled(cond, kPtargetW, kPcoreMaxW, tick,
                                   ticks, kTickMs);
            for (std::size_t n = 0; n < ticks; ++n)
                single.observeSettled(cond, kPtargetW, kPcoreMaxW,
                                      tick + n, 1, kTickMs);
            tick += ticks;
            EXPECT_EQ(batched.tier(), single.tier()) << k;
            EXPECT_EQ(batched.stats(), single.stats()) << k;
            EXPECT_EQ(batched.settleBiasW(), single.settleBiasW()) << k;
        };
        for (int round = 0; round < 3; ++round) {
            batched.selectLevels(snap);
            single.selectLevels(snap);
            for (const ChipCondition *cond :
                 {&overBudget, &std::as_const(overCoreCap), &clean, &clean})
                observe(*cond, k);
        }
        // From safe mode (k = 2 to 4) one run climbs both tiers back.
        if (k >= 2 && k <= 4) {
            EXPECT_EQ(single.tier(), GuardTier::SafeMode) << k;
        }
        observe(clean, 2 * kRecover + 5);
        EXPECT_EQ(single.tier(), GuardTier::Primary) << k;
        if (k >= 2) {
            EXPECT_GT(single.stats().recoveries, 0u) << k;
            EXPECT_GT(single.stats().degradedTimeMs, 0.0) << k;
            EXPECT_GT(single.stats().recoveryMs, 0.0) << k;
        }
    }
}

TEST(GuardedPm, QuarantinedSensorDropsToFallbackTier)
{
    GuardedPowerManager guarded(std::make_unique<LinOptManager>());
    auto good = syntheticSnapshot(3, 100.0, 10.0);
    guarded.selectLevels(good);
    EXPECT_EQ(guarded.tier(), GuardTier::Primary);

    auto bad = syntheticSnapshot(3, 100.0, 10.0);
    std::ranges::fill(bad.powerRow(0), 1.0); // stuck sensor
    guarded.selectLevels(bad);
    // Distrust alone engages the conservative tier.
    EXPECT_EQ(guarded.tier(), GuardTier::Fallback);
    EXPECT_EQ(guarded.stats().fallbackEngagements, 1u);
    EXPECT_EQ(guarded.sensorQuarantines(), 1u);
}

// ---------------------------------------------------------------------
// SystemConfig validation
// ---------------------------------------------------------------------

TEST(SystemConfigValidation, RejectsBadTimingAndBudgets)
{
    SystemConfig c;
    c.pm = PmKind::LinOpt;

    SystemConfig bad = c;
    bad.tickMs = 0.0;
    EXPECT_THROW(validateSystemConfig(bad, 20), std::invalid_argument);

    bad = c;
    bad.durationMs = -5.0;
    EXPECT_THROW(validateSystemConfig(bad, 20), std::invalid_argument);

    bad = c;
    bad.dvfsIntervalMs = 2.5; // not a multiple of the 1 ms tick
    EXPECT_THROW(validateSystemConfig(bad, 20), std::invalid_argument);

    bad = c;
    bad.osIntervalMs = 33.3;
    EXPECT_THROW(validateSystemConfig(bad, 20), std::invalid_argument);

    bad = c;
    bad.ptargetW = 0.0;
    EXPECT_THROW(validateSystemConfig(bad, 20), std::invalid_argument);

    // Ptarget is irrelevant without a power manager.
    bad.pm = PmKind::None;
    EXPECT_NO_THROW(validateSystemConfig(bad, 20));

    EXPECT_NO_THROW(validateSystemConfig(c, 20));
}

TEST(SystemConfigValidation, RejectsFaultSpecsBeyondTheDie)
{
    SystemConfig c;
    c.faults.sensorFaults.push_back(
        {SensorFaultKind::StuckAt, 25, 0.0, -1.0, 1.0, 1.0});
    EXPECT_THROW(validateSystemConfig(c, 20), std::invalid_argument);

    SystemConfig c2;
    c2.faults.coreFailures.push_back({20, 10.0});
    EXPECT_THROW(validateSystemConfig(c2, 20), std::invalid_argument);
    c2.faults.coreFailures[0].coreId = 19;
    EXPECT_NO_THROW(validateSystemConfig(c2, 20));
}

// ---------------------------------------------------------------------
// System integration
// ---------------------------------------------------------------------

class FaultSystemFixture : public ::testing::Test
{
  protected:
    FaultSystemFixture() : die_(makeParams(), 77) {}

    static DieParams
    makeParams()
    {
        DieParams p;
        p.variation.gridSize = 48;
        return p;
    }

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
        c.pm = PmKind::FoxtonStar;
        return c;
    }

    Die die_;
};

TEST_F(FaultSystemFixture, CoreFailureParksAndRemapsThreads)
{
    SystemConfig c = baseConfig();
    SystemSimulator clean(die_, workload(20), c);
    const auto rClean = clean.run();

    c.faults.coreFailures.push_back({3, 30.0});
    SystemSimulator faulty(die_, workload(20), c);
    const auto r = faulty.run();

    EXPECT_EQ(r.coresFailed, 1u);
    EXPECT_GT(r.avgMips, 0.0);
    // 20 threads on 19 surviving cores: one parked thread's worth of
    // throughput is gone for most of the run.
    EXPECT_LT(r.avgMips, rClean.avgMips);
}

TEST_F(FaultSystemFixture, RunsAreDeterministicUnderFaults)
{
    SystemConfig c = baseConfig();
    c.faults.dvfs.failRate = 0.2;
    c.faults.sensorFaults.push_back(
        {SensorFaultKind::Spike, 2, 10.0, 60.0, 5.0, 0.5});

    SystemSimulator a(die_, workload(12), c);
    SystemSimulator b(die_, workload(12), c);
    const auto ra = a.run();
    const auto rb = b.run();
    EXPECT_GT(ra.dvfsFaultsInjected, 0u);
    EXPECT_EQ(ra.dvfsFaultsInjected, rb.dvfsFaultsInjected);
    EXPECT_EQ(ra.powerTrace, rb.powerTrace);
}

TEST_F(FaultSystemFixture, DefaultPcoreMaxMatchesExplicitDerivation)
{
    SystemConfig c = baseConfig();
    c.pcoreMaxW = 0.0; // derive 2 * Ptarget / threads
    SystemConfig explicitCap = c;
    explicitCap.pcoreMaxW = 2.0 * c.ptargetW / 10.0;

    SystemSimulator a(die_, workload(10), c);
    SystemSimulator b(die_, workload(10), explicitCap);
    EXPECT_EQ(a.run().powerTrace, b.run().powerTrace);
}

TEST_F(FaultSystemFixture, GuardedLinOptRidesThroughFaults)
{
    // The issue's acceptance scenario: a power sensor stuck at 1 W
    // for 50-200 ms plus a 1% DVFS actuation-failure rate, guarded
    // LinOpt. The guard must keep the chip near its budget, engage
    // the fallback chain while the sensor is untrusted, and hand
    // control back to LinOpt after the fault clears.
    SystemConfig c = baseConfig();
    c.pm = PmKind::LinOpt;
    c.guardedPm = true;
    c.durationMs = 400.0;
    c.faults.sensorFaults.push_back(
        {SensorFaultKind::StuckAt, 0, 50.0, 200.0, 1.0, 1.0});
    c.faults.dvfs.failRate = 0.01;

    // Scenario-local die: the shared fixture die draws an unluckily
    // leaky chip on which LinOpt cannot hold this budget even
    // fault-free, which would test the die, not the guard.
    const Die die(makeParams(), 79);
    SystemSimulator sim(die, workload(20), c);
    const auto r = sim.run();

    // Within 5% of Ptarget for >= 95% of the simulated time.
    EXPECT_LE(r.capViolationFraction, 0.05);
    // The fallback chain engaged while the sensor was quarantined...
    EXPECT_GE(r.fallbackEngagements, 1u);
    EXPECT_GE(r.sensorQuarantines, 1u);
    EXPECT_GT(r.degradedTimeMs, 0.0);
    // ...and control returned to LinOpt once the fault cleared.
    EXPECT_EQ(r.finalGuardTier, 0);
    EXPECT_GE(r.guardRecoveries, 1u);
    EXPECT_GT(r.meanRecoveryMs, 0.0);

    // The unguarded manager on the same fault schedule does no
    // better: the guard costs nothing it doesn't pay back.
    SystemConfig unguardedCfg = c;
    unguardedCfg.guardedPm = false;
    SystemSimulator unguarded(die, workload(20), unguardedCfg);
    const auto ru = unguarded.run();
    EXPECT_GE(ru.capViolationFraction, r.capViolationFraction);
}

TEST_F(FaultSystemFixture, GuardIsCheapWhenNothingFails)
{
    SystemConfig c = baseConfig();
    c.pm = PmKind::LinOpt;
    c.durationMs = 200.0;

    SystemConfig guardedCfg = c;
    guardedCfg.guardedPm = true;

    SystemSimulator plain(die_, workload(20), c);
    SystemSimulator guarded(die_, workload(20), guardedCfg);
    const auto rp = plain.run();
    const auto rg = guarded.run();

    EXPECT_LE(rg.capViolationFraction, 0.05);
    EXPECT_EQ(rg.finalGuardTier, 0);
    // Throughput cost of the guard on a healthy chip stays small.
    EXPECT_GE(rg.avgMips, rp.avgMips * 0.90);
}

} // namespace
} // namespace varsched
