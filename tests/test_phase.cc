/**
 * @file
 * Edge-case tests for the phase-sampled tick engine: the PhaseSampler
 * state machine in isolation (single-tick phases, churn at the
 * hysteresis boundary, adaptive period, budget-zero exactness) and
 * its integration into SystemSimulator (fault invalidation, sampled
 * runs tracking the exact reference, traffic workload plumbing), and
 * the sampled-vs-exact guard over the phase-sampled bench runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "cmpsim/workload.hh"
#include "core/experiment.hh"
#include "core/system.hh"
#include "runtime/phase.hh"

namespace varsched
{
namespace
{

std::vector<std::uint64_t>
sigOf(std::initializer_list<std::uint64_t> words)
{
    return std::vector<std::uint64_t>(words);
}

// ---------------------------------------------------------------------
// Signature primitives
// ---------------------------------------------------------------------

TEST(PhaseSignature, QuantiseSnapsToLattice)
{
    // Values within half a step quantise identically...
    EXPECT_EQ(phaseQuantise(1.0), phaseQuantise(1.007));
    // ...a full step apart they differ.
    EXPECT_NE(phaseQuantise(1.0), phaseQuantise(1.0 + kPhaseQuantStep));
}

TEST(PhaseSignature, DistanceCountsActiveSlots)
{
    EXPECT_DOUBLE_EQ(phaseDistance(sigOf({0, 0}), sigOf({0, 0})), 0.0);
    EXPECT_DOUBLE_EQ(phaseDistance(sigOf({1, 2, 3}), sigOf({1, 2, 3})),
                     0.0);
    // One of three occupied slots changed.
    EXPECT_DOUBLE_EQ(phaseDistance(sigOf({1, 2, 3}), sigOf({1, 2, 9})),
                     1.0 / 3.0);
    // A slot occupied on one side only (thread parked) is churn.
    EXPECT_DOUBLE_EQ(phaseDistance(sigOf({1, 0}), sigOf({1, 5})), 0.5);
    // Size mismatch is a structural change.
    EXPECT_DOUBLE_EQ(phaseDistance(sigOf({1}), sigOf({1, 2})), 1.0);
}

TEST(PhaseSignature, ChurnToleranceDerivesFromBudget)
{
    PhaseSamplingConfig c;
    c.errorBudget = 0.01;
    EXPECT_DOUBLE_EQ(phaseChurnTolerance(c), 0.15);
    c.errorBudget = 0.2; // capped
    EXPECT_DOUBLE_EQ(phaseChurnTolerance(c), 0.5);
    c.maxChurnFraction = 0.25; // explicit override wins
    EXPECT_DOUBLE_EQ(phaseChurnTolerance(c), 0.25);
}

TEST(PhaseSignature, EnvFlagParsesExplicitZero)
{
    // envSize folds 0 back into the fallback, so a default-on knob
    // like VARSCHED_PHASE_SAMPLING needs envFlag to be turn-off-able.
    ::setenv("VARSCHED_TEST_FLAG", "0", 1);
    EXPECT_FALSE(envFlag("VARSCHED_TEST_FLAG", true));
    ::setenv("VARSCHED_TEST_FLAG", "1", 1);
    EXPECT_TRUE(envFlag("VARSCHED_TEST_FLAG", false));
    ::unsetenv("VARSCHED_TEST_FLAG");
    EXPECT_TRUE(envFlag("VARSCHED_TEST_FLAG", true));
    EXPECT_FALSE(envFlag("VARSCHED_TEST_FLAG", false));
}

// ---------------------------------------------------------------------
// Sampler state machine
// ---------------------------------------------------------------------

PhaseSamplingConfig
samplerConfig()
{
    PhaseSamplingConfig c;
    c.enabled = true;
    c.errorBudget = 0.01;
    return c;
}

/** Drive a constant signature until the sampler goes steady. */
void
driveSteady(PhaseSampler &sampler, const std::vector<std::uint64_t> &sig)
{
    for (int t = 0; t <= kPhaseHysteresisTicks; ++t) {
        EXPECT_FALSE(sampler.observeTick(sig));
        EXPECT_TRUE(sampler.beginEpochEvaluate()); // not steady yet
        sampler.freezeBasis(sig);
    }
    EXPECT_TRUE(sampler.steady());
}

TEST(PhaseSampler, SingleTickPhasesNeverGoSteady)
{
    PhaseSampler sampler(samplerConfig(), 4);
    const auto a = sigOf({1, 2, 3, 4});
    const auto b = sigOf({5, 6, 7, 8});
    // A workload flipping phase every tick can never satisfy the
    // hysteresis, so every epoch is evaluated exactly.
    for (int t = 0; t < 200; ++t) {
        EXPECT_FALSE(sampler.observeTick(t % 2 == 0 ? a : b));
        EXPECT_TRUE(sampler.beginEpochEvaluate());
        sampler.freezeBasis(t % 2 == 0 ? a : b);
    }
    EXPECT_FALSE(sampler.steady());
    EXPECT_EQ(sampler.stats().extrapolatedEpochs, 0u);
}

TEST(PhaseSampler, SteadyPhaseSamplesAtThePeriod)
{
    PhaseSamplingConfig cfg = samplerConfig();
    PhaseSampler sampler(cfg, 4);
    const auto sig = sigOf({1, 2, 3, 4});
    driveSteady(sampler, sig);

    // Once steady, only every kPhaseSamplePeriodEpochs-th epoch is
    // evaluated.
    const int epochs = 4 * kPhaseSamplePeriodEpochs;
    int evaluated = 0, extrapolated = 0;
    for (int e = 0; e < epochs; ++e) {
        sampler.observeTick(sig);
        if (sampler.beginEpochEvaluate()) {
            ++evaluated;
            sampler.freezeBasis(sig);
        } else {
            ++extrapolated;
            sampler.noteExtrapolatedTicks(1);
        }
    }
    EXPECT_EQ(evaluated, 4);
    EXPECT_EQ(extrapolated, epochs - 4);
}

TEST(PhaseSampler, WarmupEpochsGateExtrapolation)
{
    PhaseSamplingConfig cfg = samplerConfig();
    PhaseSampler sampler(cfg, 4);
    const auto sig = sigOf({1, 2, 3, 4});

    // Hysteresis completes mid-epoch: the workload looked steady
    // before a single epoch decision ran. Extrapolation must still
    // wait out kPhaseWarmupEpochs evaluated decisions — the tick-level
    // signature cannot see a control loop that is still converging.
    for (int t = 0; t <= kPhaseHysteresisTicks; ++t) {
        EXPECT_FALSE(sampler.observeTick(sig));
        sampler.freezeBasis(sig);
    }
    EXPECT_TRUE(sampler.steady());
    for (int e = 0; e < kPhaseWarmupEpochs; ++e) {
        EXPECT_TRUE(sampler.beginEpochEvaluate()) << "epoch " << e;
        sampler.freezeBasis(sig);
    }
    EXPECT_FALSE(sampler.beginEpochEvaluate());

    // Invalidation restarts the warmup along with the hysteresis.
    sampler.invalidate(PhaseInvalidation::Fault);
    for (int t = 0; t <= kPhaseHysteresisTicks; ++t) {
        sampler.observeTick(sig);
        sampler.freezeBasis(sig);
    }
    EXPECT_TRUE(sampler.steady());
    EXPECT_TRUE(sampler.beginEpochEvaluate());
}

TEST(PhaseSampler, ChurnAtTheHysteresisBoundary)
{
    PhaseSamplingConfig cfg = samplerConfig(); // churnTol = 0.15
    PhaseSampler sampler(cfg, 10);
    std::vector<std::uint64_t> sig(10);
    for (std::size_t i = 0; i < sig.size(); ++i)
        sig[i] = 100 + i;
    driveSteady(sampler, sig);

    // 1 of 10 slots changed: 0.10 <= 0.15 — rides on the basis.
    auto drift = sig;
    drift[0] = 999;
    EXPECT_FALSE(sampler.observeTick(drift));
    EXPECT_TRUE(sampler.steady());

    // 2 of 10 slots changed: 0.20 > 0.15 — forced resample, but the
    // sampler stays steady (statistically the same phase mix).
    drift[1] = 998;
    EXPECT_TRUE(sampler.observeTick(drift));
    EXPECT_TRUE(sampler.steady());
    EXPECT_FALSE(sampler.extrapolating());
    EXPECT_EQ(sampler.stats().invalidations[static_cast<std::size_t>(
                  PhaseInvalidation::PhaseChange)],
              1u);

    // The exact settle refreezes onto the drifted signature.
    sampler.freezeBasis(drift);
    EXPECT_FALSE(sampler.observeTick(drift));
}

TEST(PhaseSampler, InvalidationDropsBasisAndResetsPeriod)
{
    PhaseSamplingConfig cfg = samplerConfig();
    PhaseSampler sampler(cfg, 4);
    const auto sig = sigOf({1, 2, 3, 4});
    driveSteady(sampler, sig);

    // Deepen the period first (tiny checkpoint drift)...
    sampler.checkpoint(0.0, 0.0, true);
    EXPECT_EQ(sampler.currentPeriod(), 4 * kPhaseSamplePeriodEpochs);

    // ...then a DVFS swing drops everything back to square one.
    sampler.invalidate(PhaseInvalidation::DvfsChange);
    EXPECT_FALSE(sampler.steady());
    EXPECT_FALSE(sampler.extrapolating());
    EXPECT_EQ(sampler.currentPeriod(), kPhaseSamplePeriodEpochs);
    EXPECT_EQ(sampler.stats().invalidations[static_cast<std::size_t>(
                  PhaseInvalidation::DvfsChange)],
              1u);
    // Hysteresis must re-run before extrapolation resumes.
    EXPECT_FALSE(sampler.observeTick(sig));
    EXPECT_TRUE(sampler.beginEpochEvaluate());
}

TEST(PhaseSampler, CheckpointAdaptsOnlyAtBoundaries)
{
    PhaseSamplingConfig cfg = samplerConfig();
    PhaseSampler sampler(cfg, 4);
    const auto sig = sigOf({1, 2, 3, 4});
    driveSteady(sampler, sig);
    const int p0 = sampler.currentPeriod();

    // Mid-epoch (forced-resample) checkpoints never adapt the period.
    sampler.checkpoint(0.0, 0.0, false);
    sampler.checkpoint(0.0, 10.0 * cfg.errorBudget, false);
    EXPECT_EQ(sampler.currentPeriod(), p0);
    EXPECT_EQ(sampler.stats().invalidations[static_cast<std::size_t>(
                  PhaseInvalidation::BudgetExceeded)],
              0u);

    // Quiet drift (under half the budget) deepens x4; drift that
    // stays within the budget still deepens, but only x2.
    sampler.checkpoint(0.0, 0.0, true);
    EXPECT_EQ(sampler.currentPeriod(), 4 * p0);
    sampler.checkpoint(0.0, 0.8 * cfg.errorBudget, true);
    EXPECT_EQ(sampler.currentPeriod(), 8 * p0);

    // Drift over the budget backs the period off by halving — floored
    // at the initial period — while steadiness is kept: a noisy but
    // stationary phase keeps sampling, just shallower.
    sampler.checkpoint(0.0, 2.0 * cfg.errorBudget, true);
    EXPECT_EQ(sampler.currentPeriod(), 4 * p0);
    EXPECT_TRUE(sampler.steady());
    for (int i = 0; i < 6; ++i)
        sampler.checkpoint(0.0, 2.0 * cfg.errorBudget, true);
    EXPECT_EQ(sampler.currentPeriod(), p0);
    EXPECT_TRUE(sampler.steady());

    // Only drift past the hard factor drops the basis outright — the
    // phase must re-earn steadiness through hysteresis and warmup.
    sampler.checkpoint(
        0.0, (kPhaseHardBudgetFactor + 1.0) * cfg.errorBudget, true);
    EXPECT_FALSE(sampler.steady());
    EXPECT_EQ(sampler.currentPeriod(), p0);
    EXPECT_EQ(sampler.stats().invalidations[static_cast<std::size_t>(
                  PhaseInvalidation::BudgetExceeded)],
              1u);

    // The point error alone never adapts: est_err accounting and
    // period control are separate signals.
    driveSteady(sampler, sig);
    sampler.checkpoint(10.0 * cfg.errorBudget, 0.0, true);
    EXPECT_TRUE(sampler.steady());

    // Deepening saturates at the cap once steady again.
    for (int i = 0; i < 12; ++i)
        sampler.checkpoint(0.0, 0.0, true);
    EXPECT_EQ(sampler.currentPeriod(), kPhaseMaxSamplePeriodEpochs);
}

TEST(PhaseSampler, ResampleKeepsSteadinessAndSchedulesAnEval)
{
    PhaseSamplingConfig cfg = samplerConfig();
    PhaseSampler sampler(cfg, 4);
    const auto sig = sigOf({1, 2, 3, 4});
    driveSteady(sampler, sig);

    // Deepen well past the initial period...
    sampler.checkpoint(0.0, 0.0, true);
    EXPECT_EQ(sampler.currentPeriod(), 4 * kPhaseSamplePeriodEpochs);

    // ...then a regime jump: the caller reseeds its basis and calls
    // resample(). Steadiness is kept — no hysteresis, no warmup — but
    // the period resets and the very next epoch is evaluated, so a
    // converging controller gets checked decision by decision.
    sampler.resample(PhaseInvalidation::DvfsChange);
    EXPECT_TRUE(sampler.steady());
    EXPECT_EQ(sampler.currentPeriod(), kPhaseSamplePeriodEpochs);
    EXPECT_EQ(sampler.stats().invalidations[static_cast<std::size_t>(
                  PhaseInvalidation::DvfsChange)],
              1u);
    sampler.observeTick(sig);
    EXPECT_TRUE(sampler.beginEpochEvaluate());
    sampler.freezeBasis(sig);

    // One quiet boundary later extrapolation resumes at the initial
    // period.
    for (int e = 1; e < kPhaseSamplePeriodEpochs; ++e) {
        sampler.observeTick(sig);
        EXPECT_FALSE(sampler.beginEpochEvaluate()) << "epoch " << e;
        sampler.noteExtrapolatedTicks(1);
    }
    sampler.observeTick(sig);
    EXPECT_TRUE(sampler.beginEpochEvaluate());
}

TEST(PhaseSampler, EstErrAccountsTicksSinceCheckpoint)
{
    PhaseSampler sampler(samplerConfig(), 2);
    const auto sig = sigOf({7, 8});
    driveSteady(sampler, sig);
    for (int t = 0; t < 9; ++t)
        sampler.noteExtrapolatedTicks(1);
    sampler.checkpoint(0.004, 0.0, true);
    EXPECT_NEAR(sampler.stats().estErrSum, 0.004 * 9.0, 1e-15);
    // The tick counter reset: a second checkpoint adds nothing.
    sampler.checkpoint(1.0, 0.0, false);
    EXPECT_NEAR(sampler.stats().estErrSum, 0.004 * 9.0, 1e-15);
}

TEST(PhaseSampler, BudgetZeroNeverExtrapolates)
{
    PhaseSamplingConfig cfg = samplerConfig();
    cfg.errorBudget = 0.0;
    PhaseSampler sampler(cfg, 4);
    const auto sig = sigOf({1, 2, 3, 4});
    for (int t = 0; t < 50; ++t) {
        sampler.observeTick(sig);
        EXPECT_TRUE(sampler.beginEpochEvaluate());
        EXPECT_FALSE(sampler.extrapolating());
        sampler.freezeBasis(sig);
    }
    EXPECT_EQ(sampler.stats().extrapolatedEpochs, 0u);
}

// ---------------------------------------------------------------------
// System integration
// ---------------------------------------------------------------------

/** (a - b) relative to the larger magnitude (0 when both are 0). */
double
signedRel(double a, double b)
{
    const double denom = std::max(std::abs(a), std::abs(b));
    return denom > 0.0 ? (a - b) / denom : 0.0;
}

class PhaseSystemFixture : public ::testing::Test
{
  protected:
    PhaseSystemFixture() : die_(makeParams(), 91) {}

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
        Rng rng(5);
        return randomWorkload(n, rng, &trafficApplications());
    }

    SystemConfig
    baseConfig()
    {
        SystemConfig c;
        c.durationMs = 150.0;
        c.sched = SchedAlgo::VarFAppIPC;
        c.pm = PmKind::LinOpt;
        c.ptargetW = 75.0 * 8.0 / 20.0;
        c.phaseSampling.enabled = true;
        return c;
    }

    Die die_;
};

TEST_F(PhaseSystemFixture, ValidationRejectsIncompatibleConfigs)
{
    SystemConfig c = baseConfig();
    c.transientThermal = true;
    EXPECT_THROW(validateSystemConfig(c, 20), std::invalid_argument);

    c = baseConfig();
    c.guardedPm = true;
    EXPECT_THROW(validateSystemConfig(c, 20), std::invalid_argument);

    // The basis blend is an EWMA weight in (0, 1].
    c = baseConfig();
    c.phaseSampling.basisBlend = 0.0;
    EXPECT_THROW(validateSystemConfig(c, 20), std::invalid_argument);

    c = baseConfig();
    c.phaseSampling.basisBlend = 1.5;
    EXPECT_THROW(validateSystemConfig(c, 20), std::invalid_argument);

    c = baseConfig();
    c.phaseSampling.basisBlend = 1.0;
    EXPECT_NO_THROW(validateSystemConfig(c, 20));

    EXPECT_NO_THROW(validateSystemConfig(baseConfig(), 20));
}

TEST_F(PhaseSystemFixture, BudgetZeroMatchesExactReferenceBitwise)
{
    // With a zero budget the sampler never extrapolates, so the
    // sampled engine must reproduce the exact reference bit for bit —
    // the invariant the SamplingGuard tests rely on.
    SystemConfig sampled = baseConfig();
    sampled.phaseSampling.errorBudget = 0.0;
    SystemConfig exact = baseConfig();
    exact.phaseSampling.enabled = false;

    SystemSimulator a(die_, workload(8), sampled);
    SystemSimulator b(die_, workload(8), exact);
    const auto ra = a.run();
    const auto rb = b.run();

    EXPECT_EQ(ra.avgMips, rb.avgMips);
    EXPECT_EQ(ra.avgPowerW, rb.avgPowerW);
    EXPECT_EQ(ra.energyJ, rb.energyJ);
    EXPECT_EQ(ra.ed2, rb.ed2);
    EXPECT_EQ(ra.powerDeviation, rb.powerDeviation);
    ASSERT_EQ(ra.powerTrace.size(), rb.powerTrace.size());
    for (std::size_t i = 0; i < ra.powerTrace.size(); ++i)
        EXPECT_EQ(ra.powerTrace[i], rb.powerTrace[i]) << "tick " << i;
    EXPECT_EQ(ra.sampledTicks, 0u);
    EXPECT_EQ(rb.sampledTicks, 0u);
}

/**
 * Every SystemResult field of two runs, bit for bit. Only
 * phaseInvalidations is left out: it counts how often the sampler's
 * extrapolation basis was knocked out, and a run with sampling off
 * keeps no basis to invalidate, whatever it simulates.
 */
void
expectSameRun(const SystemResult &a, const SystemResult &b)
{
    EXPECT_EQ(a.avgMips, b.avgMips);
    EXPECT_EQ(a.avgMinThreadMips, b.avgMinThreadMips);
    EXPECT_EQ(a.avgWeightedIpc, b.avgWeightedIpc);
    EXPECT_EQ(a.avgWeightedProgress, b.avgWeightedProgress);
    EXPECT_EQ(a.avgPowerW, b.avgPowerW);
    EXPECT_EQ(a.avgFreqHz, b.avgFreqHz);
    EXPECT_EQ(a.maxCoreTempC, b.maxCoreTempC);
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.ed2, b.ed2);
    EXPECT_EQ(a.weightedEd2, b.weightedEd2);
    EXPECT_EQ(a.powerDeviation, b.powerDeviation);
    ASSERT_EQ(a.powerTrace.size(), b.powerTrace.size());
    for (std::size_t i = 0; i < a.powerTrace.size(); ++i)
        EXPECT_EQ(a.powerTrace[i], b.powerTrace[i]) << "tick " << i;
    EXPECT_EQ(a.worstAgingRate, b.worstAgingRate);
    EXPECT_EQ(a.projectedLifetimeYears, b.projectedLifetimeYears);
    EXPECT_EQ(a.transitionLossFraction, b.transitionLossFraction);
    EXPECT_EQ(a.capViolationFraction, b.capViolationFraction);
    EXPECT_EQ(a.fallbackEngagements, b.fallbackEngagements);
    EXPECT_EQ(a.guardRecoveries, b.guardRecoveries);
    EXPECT_EQ(a.finalGuardTier, b.finalGuardTier);
    EXPECT_EQ(a.meanRecoveryMs, b.meanRecoveryMs);
    EXPECT_EQ(a.degradedTimeMs, b.degradedTimeMs);
    EXPECT_EQ(a.sensorQuarantines, b.sensorQuarantines);
    EXPECT_EQ(a.dvfsFaultsInjected, b.dvfsFaultsInjected);
    EXPECT_EQ(a.coresFailed, b.coresFailed);
    EXPECT_EQ(a.exactTicks, b.exactTicks);
    EXPECT_EQ(a.sampledTicks, b.sampledTicks);
    EXPECT_EQ(a.estErr, b.estErr);
    EXPECT_EQ(a.evaluatedEpochs, b.evaluatedEpochs);
    EXPECT_EQ(a.extrapolatedEpochs, b.extrapolatedEpochs);
}

TEST_F(PhaseSystemFixture, SamplingOffMatchesBudgetZeroBitwise)
{
    // A zero budget is the exact engine: the sampler runs but never
    // extrapolates, so the run must equal the one with sampling off
    // bit for bit — same per-epoch noise, same SAnn seeds, same
    // settles. Foxton* is demoted to a zero budget on its own; LinOpt
    // and SAnn get there through the config.
    for (const PmKind pm :
         {PmKind::LinOpt, PmKind::SAnn, PmKind::FoxtonStar}) {
        SCOPED_TRACE(pmKindName(pm));
        SystemConfig budgetZero = baseConfig();
        budgetZero.pm = pm;
        budgetZero.sannEvals = 2000;
        budgetZero.phaseSampling.errorBudget = 0.0;
        SystemConfig off = budgetZero;
        off.phaseSampling.enabled = false;

        const auto ra = SystemSimulator(die_, workload(8), budgetZero).run();
        const auto rb = SystemSimulator(die_, workload(8), off).run();
        expectSameRun(ra, rb);
        EXPECT_EQ(ra.sampledTicks, 0u);
        EXPECT_EQ(rb.sampledTicks, 0u);
        EXPECT_GT(ra.evaluatedEpochs, 0u);
        EXPECT_EQ(rb.phaseInvalidations, 0u);
    }
}

TEST_F(PhaseSystemFixture, SampledRunTracksExactWithinBudget)
{
    SystemConfig sampled = baseConfig(); // default 1% budget
    SystemConfig exact = baseConfig();
    exact.phaseSampling.enabled = false;

    SystemSimulator a(die_, workload(8), sampled);
    SystemSimulator b(die_, workload(8), exact);
    const auto ra = a.run();
    const auto rb = b.run();

    // Sampling actually engaged on the seconds-dwell traffic mix.
    EXPECT_GT(ra.sampledTicks, 0u);
    EXPECT_GT(ra.extrapolatedEpochs, 0u);
    EXPECT_EQ(rb.sampledTicks, 0u);
    EXPECT_EQ(ra.exactTicks + ra.sampledTicks,
              rb.exactTicks + rb.sampledTicks);

    const auto rel = [](double x, double y) {
        return std::abs(signedRel(x, y));
    };
    const double budget = sampled.phaseSampling.errorBudget;
    EXPECT_LE(rel(ra.avgPowerW, rb.avgPowerW), budget);
    EXPECT_LE(rel(ra.energyJ, rb.energyJ), budget);
    // ED^2 inherits the run's decision trajectory, which sampling
    // necessarily decouples from the reference (both are draws of the
    // same sensor-noise process): per run it is held to the loose
    // cap, and to the budget only on aggregate (next test).
    EXPECT_LE(rel(ra.ed2, rb.ed2), 5.0 * budget);
    // The self-reported estimate is a sane fraction.
    EXPECT_GE(ra.estErr, 0.0);
    EXPECT_LE(ra.estErr, 1.0);
}

TEST_F(PhaseSystemFixture, SampledEd2IsUnbiasedAcrossRuns)
{
    // Per-run ED^2 deviation is trajectory noise, zero-mean by
    // construction; the budget holds on the aggregate a bench
    // reports. Deterministic: fixed seeds, fixed outcome.
    double relSum = 0.0;
    const int kRuns = 4;
    for (int seed = 0; seed < kRuns; ++seed) {
        SystemConfig sampled = baseConfig();
        sampled.seed = 1000 + seed;
        SystemConfig exact = sampled;
        exact.phaseSampling.enabled = false;
        SystemSimulator a(die_, workload(8), sampled);
        SystemSimulator b(die_, workload(8), exact);
        const auto ra = a.run();
        const auto rb = b.run();
        relSum += signedRel(ra.ed2, rb.ed2);
    }
    EXPECT_LE(std::abs(relSum) / kRuns,
              baseConfig().phaseSampling.errorBudget);
}

TEST_F(PhaseSystemFixture, FaultInvalidatesTheFrozenBasis)
{
    SystemConfig c = baseConfig();
    c.faults.coreFailures.push_back({3, 60.0});

    SystemSimulator sim(die_, workload(8), c);
    const auto r = sim.run();

    EXPECT_EQ(r.coresFailed, 1u);
    EXPECT_GT(r.avgMips, 0.0);
    // The core death knocked the sampler out at least once; the run
    // still extrapolates before and after the event.
    EXPECT_GE(r.phaseInvalidations, 1u);
    EXPECT_GT(r.sampledTicks, 0u);
}

TEST_F(PhaseSystemFixture, DvfsChurnForcesResample)
{
    // A tiny churn tolerance plus an aggressive manager: every epoch
    // the manager changes most levels, so extrapolation never sticks
    // past an epoch boundary and DvfsChange invalidations appear.
    SystemConfig c = baseConfig();
    c.phaseSampling.maxChurnFraction = 0.0;

    SystemSimulator sim(die_, workload(8), c);
    const auto r = sim.run();
    EXPECT_GE(r.phaseInvalidations, 1u);
    EXPECT_GT(r.evaluatedEpochs, 0u);
}

/** A one-die, two-trial batch of baseConfig() on the traffic mix. */
BatchResult
runTrafficBatch(bool sampling)
{
    BatchConfig batch;
    batch.dieParams.variation.gridSize = 48;
    batch.numDies = 1;
    batch.numTrials = 2;
    batch.workerThreads = 2;
    batch.workloadPool = &trafficApplications();
    SystemConfig c;
    c.durationMs = 150.0;
    c.sched = SchedAlgo::VarFAppIPC;
    c.pm = PmKind::LinOpt;
    c.ptargetW = 75.0 * 8.0 / 20.0;
    c.phaseSampling.enabled = sampling;
    return runBatch(batch, 8, {c});
}

TEST(PhaseBatch, SampledBatchReportsSaneTickTelemetry)
{
    // The batch-level roll-up of the per-run sampling telemetry: some
    // ticks were simulated, and the worst self-reported error is a
    // fraction.
    const BatchResult r = runTrafficBatch(true);
    EXPECT_GT(r.exactTicks + r.sampledTicks, 0u);
    EXPECT_GE(r.estErrMax, 0.0);
    EXPECT_LE(r.estErrMax, 1.0);
}

TEST(PhaseBatch, SamplingOffBatchExtrapolatesNoTick)
{
    const BatchResult r = runTrafficBatch(false);
    EXPECT_GT(r.exactTicks, 0u);
    EXPECT_EQ(r.sampledTicks, 0u);
}

// ---------------------------------------------------------------------
// Sampled-vs-exact guard
// ---------------------------------------------------------------------

// Per-run caps, in budgets. ED^2's follows from the power cap:
// rel(ED^2) ~ rel(E) + 2 rel(M), so a throughput wobble the size of
// the power cap shows up three- to four-fold in ED^2.
constexpr double kRunCapBudgets = 3.0;
constexpr double kEd2RunCapBudgets = 12.0;

/**
 * The bench runs of one guard set, each replayed phase-sampled and
 * with sampling off. A sampled run's decision trajectory decorrelates
 * from the exact run's the moment one decision is skipped: both are
 * draws of the same sensor-noise process, worth a few tenths of a
 * percent of throughput either way. That noise is zero-mean only
 * because the sampled engine's basis carries workload drift, verifies
 * reseeds and charges skipped decisions' stalls; without any of those
 * the sampled run is biased toward higher MIPS. So each run is held to
 * a loose cap (real extrapolation failures blow well past it), and the
 * budget is asserted on the mean signed deviation over the set, the
 * number a bench reports.
 */
class SamplingGuardSet
{
  public:
    /**
     * Replay tuple (die @p d, trial 0) of @p batch under @p proto the
     * way runBatch does, sampled and exact, and check the per-run caps.
     * @p label names the run in failure messages.
     */
    void
    run(const BatchConfig &batch, const Die &die, std::size_t d,
        std::size_t numThreads, const SystemConfig &proto,
        const std::string &label)
    {
        Rng workloadRng = workloadRngFor(batch, d, 0);
        const auto apps =
            randomWorkload(numThreads, workloadRng, batch.workloadPool);
        SystemConfig config = proto;
        config.seed = workloadRng.next();
        SystemConfig exactConfig = config;
        exactConfig.phaseSampling.enabled = false;
        const SystemResult sampled =
            SystemSimulator(die, apps, config).run();
        const SystemResult exact =
            SystemSimulator(die, apps, exactConfig).run();

        budget_ = std::max(config.phaseSampling.errorBudget, 0.0);
        const double power = signedRel(sampled.avgPowerW, exact.avgPowerW);
        const double energy = signedRel(sampled.energyJ, exact.energyJ);
        const double ed2 = signedRel(sampled.ed2, exact.ed2);
        const double runCap = kRunCapBudgets * budget_;
        const double ed2Cap = kEd2RunCapBudgets * budget_;
        const std::string where = label + " die " + std::to_string(d);
        EXPECT_LE(std::abs(power), runCap)
            << where << ": power deviation " << power << ", cap "
            << runCap;
        EXPECT_LE(std::abs(energy), runCap)
            << where << ": energy deviation " << energy << ", cap "
            << runCap;
        EXPECT_LE(std::abs(ed2), ed2Cap)
            << where << ": ED^2 deviation " << ed2 << ", cap " << ed2Cap;

        powerSum_ += power;
        energySum_ += energy;
        ed2Sum_ += ed2;
        worstEd2_ = std::max(worstEd2_, std::abs(ed2));
        ++runs_;
    }

    /** The budget on the set's mean deviations, and the report. */
    void
    expectUnbiased() const
    {
        ASSERT_GT(runs_, 0u);
        const double n = static_cast<double>(runs_);
        const double ed2Cap = kEd2RunCapBudgets * budget_;
        ::testing::Test::RecordProperty(
            "worst_run_ed2_deviation", std::to_string(worstEd2_));
        ::testing::Test::RecordProperty("worst_run_ed2_cap",
                                        std::to_string(ed2Cap));
        std::printf("%zu sampled runs: worst ED^2 deviation %.4g (cap "
                    "%.4g); mean power %.3g, energy %.3g, ED^2 %.3g "
                    "(budget %.4g)\n",
                    runs_, worstEd2_, ed2Cap, powerSum_ / n,
                    energySum_ / n, ed2Sum_ / n, budget_);
        EXPECT_LE(std::abs(powerSum_ / n), budget_)
            << "mean power deviation over " << runs_ << " runs";
        EXPECT_LE(std::abs(energySum_ / n), budget_)
            << "mean energy deviation over " << runs_ << " runs";
        EXPECT_LE(std::abs(ed2Sum_ / n), budget_)
            << "mean ED^2 deviation over " << runs_ << " runs";
    }

  private:
    double powerSum_ = 0.0;
    double energySum_ = 0.0;
    double ed2Sum_ = 0.0;
    double worstEd2_ = 0.0;
    double budget_ = 0.0;
    std::size_t runs_ = 0;
};

/** One trial per die on the default seed, as the bench smokes ran. */
BatchConfig
guardBatch(std::size_t numDies)
{
    BatchConfig batch;
    batch.numDies = numDies;
    batch.numTrials = 1;
    return batch;
}

/**
 * Fig 13's sweep (bench_fig13_weighted): four configs at 4-20 threads,
 * 150 ms, SAnn at 60 evaluations.
 */
void
guardFig13(std::size_t numDies)
{
    struct Fig13Config
    {
        SchedAlgo sched;
        PmKind pm;
        const char *name;
    };
    const Fig13Config configs[] = {
        {SchedAlgo::Random, PmKind::FoxtonStar, "Random+Foxton*"},
        {SchedAlgo::VarFAppIPC, PmKind::FoxtonStar, "VarF&AppIPC+Foxton*"},
        {SchedAlgo::VarFAppIPC, PmKind::LinOpt, "VarF&AppIPC+LinOpt"},
        {SchedAlgo::VarFAppIPC, PmKind::SAnn, "VarF&AppIPC+SAnn"},
    };
    const BatchConfig batch = guardBatch(numDies);
    SamplingGuardSet set;
    for (std::size_t d = 0; d < numDies; ++d) {
        const Die die(batch.dieParams, dieSeedFor(batch, d));
        for (const std::size_t threads : {4u, 8u, 16u, 20u}) {
            for (const Fig13Config &f : configs) {
                SystemConfig c;
                c.sched = f.sched;
                c.pm = f.pm;
                c.ptargetW = 75.0 * static_cast<double>(threads) / 20.0;
                c.durationMs = 150.0;
                c.sannEvals = 60;
                c.phaseSampling.enabled = true;
                set.run(batch, die, d, threads, c,
                        "threads=" + std::to_string(threads) + " " +
                            f.name);
            }
        }
    }
    set.expectUnbiased();
}

/**
 * The long-horizon bench (bench_ext_longhorizon) at a 4000 ms horizon:
 * LinOpt at 30 W, 8 threads of service traffic, basis blend 0.5.
 */
void
guardLongHorizon(std::size_t numDies)
{
    BatchConfig batch = guardBatch(numDies);
    batch.workloadPool = &trafficApplications();
    SystemConfig c;
    c.sched = SchedAlgo::VarFAppIPC;
    c.pm = PmKind::LinOpt;
    c.ptargetW = 75.0 * 8.0 / 20.0;
    c.durationMs = 4000.0;
    c.phaseSampling.enabled = true;
    c.phaseSampling.basisBlend = 0.5;
    SamplingGuardSet set;
    for (std::size_t d = 0; d < numDies; ++d) {
        const Die die(batch.dieParams, dieSeedFor(batch, d));
        set.run(batch, die, d, 8, c, "threads=8 VarF&AppIPC+LinOpt");
    }
    set.expectUnbiased();
}

TEST(SamplingGuard, Fig13OneDie) { guardFig13(1); }

// Over four dies: the budget holds on the mean, so one die alone
// cannot show a bias that is consistent across dies.
TEST(SamplingGuard, Fig13FourDies) { guardFig13(4); }

TEST(SamplingGuard, LongHorizonOneDie) { guardLongHorizon(1); }

TEST(SamplingGuard, LongHorizonFourDies) { guardLongHorizon(4); }

// ---------------------------------------------------------------------
// Traffic workload plumbing
// ---------------------------------------------------------------------

TEST(TrafficWorkload, ProfilesDwellSecondsPerPhase)
{
    const auto &apps = trafficApplications();
    ASSERT_EQ(apps.size(), 6u);
    for (const AppProfile &app : apps) {
        ASSERT_EQ(app.phases.size(), 3u);
        EXPECT_EQ(app.phases[0].label, "steady");
        EXPECT_EQ(app.phases[1].label, "peak");
        EXPECT_EQ(app.phases[2].label, "lull");
        // Service traffic dwells seconds, not SPEC's ~150 ms.
        EXPECT_GE(app.phases[0].meanDwellMs, 1000.0);
        // Peak runs hotter and faster; lull colder and slower.
        EXPECT_LT(app.phases[1].cpiScale, 1.0);
        EXPECT_GT(app.phases[1].activityScale, 1.0);
        EXPECT_GT(app.phases[2].cpiScale, 1.0);
        EXPECT_LT(app.phases[2].activityScale, 1.0);
    }
}

TEST(TrafficWorkload, SequencerReportsItsPhaseIndex)
{
    const AppProfile &app = trafficApplications()[0];
    PhaseSequencer seq(app, Rng(11));
    EXPECT_LT(seq.currentIndex(), app.phases.size());
    EXPECT_EQ(&seq.current(), &app.phases[seq.currentIndex()]);
    // March far past every dwell time: the index keeps naming the
    // phase `current()` returns.
    for (int i = 0; i < 100; ++i) {
        seq.advance(app.phases[0].meanDwellMs);
        EXPECT_EQ(&seq.current(), &app.phases[seq.currentIndex()]);
    }
}

TEST(TrafficWorkload, RandomWorkloadDrawsFromThePool)
{
    Rng rng(17);
    const auto picks = randomWorkload(32, rng, &trafficApplications());
    ASSERT_EQ(picks.size(), 32u);
    for (const AppProfile *app : picks) {
        bool inPool = false;
        for (const AppProfile &p : trafficApplications())
            inPool = inPool || (app == &p);
        EXPECT_TRUE(inPool) << app->name;
    }
}

} // namespace
} // namespace varsched
