/**
 * @file
 * Golden bits for the tick loop. Each case runs one SystemSimulator
 * configuration and hashes every SystemResult field bit for bit, the
 * run-length power trace expanded to one sample per tick (FNV-1a over
 * the IEEE-754 bytes, as the benchmark's digests do). The matrix
 * covers the run shapes the loop treats differently: the exact engine
 * under every manager and UniFreq, the phase-sampled engine with and
 * without an error budget, transient thermal, each fault class, the
 * guarded manager, temperature-aware scheduling, and odd timings (a
 * decision every tick, half- and tenth-millisecond ticks, no
 * transition stall, intervals that do not nest). A changed hash means the loop no
 * longer reproduces the recorded run; a deliberate numerical change
 * records new hashes and says why.
 *
 * The vector kernels round differently from the scalar ones, so each
 * case records one hash per dispatch path: the default run checks the
 * AVX2 hash, and the forced-scalar rerun of the suite (the
 * simd_forced_scalar ctest) checks the scalar one. The hashes are
 * those of the default RelWithDebInfo build; a Release build (-O3)
 * computes other bits, and most cases fail there.
 *
 * SystemRerun checks that a second run() on one simulator repeats the
 * first. PowerTrace checks the run-length trace on these shapes: it is
 * canonical, its ticks add up, capViolationFraction over its runs
 * equals the per-tick count, and a long horizon holds few runs.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "chip/die.hh"
#include "cmpsim/workload.hh"
#include "core/system.hh"
#include "runtime/simd.hh"
#include "solver/rng.hh"

namespace varsched
{
namespace
{

/** FNV-1a over the bytes of each value, in the order they are added. */
struct Fnv
{
    std::uint64_t hash = 0xcbf29ce484222325ull;

    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash ^= p[i];
            hash *= 0x100000001b3ull;
        }
    }

    void add(double v) { bytes(&v, sizeof v); }
    void add(std::uint64_t v) { bytes(&v, sizeof v); }
};

/**
 * Every field of @p r, the power trace tick by tick: its runs are
 * expanded, so the bytes hashed are those of one sample per tick.
 */
std::uint64_t
digest(const SystemResult &r)
{
    Fnv h;
    for (double v : {r.avgMips, r.avgMinThreadMips, r.avgWeightedIpc,
                     r.avgWeightedProgress, r.avgPowerW, r.avgFreqHz,
                     r.maxCoreTempC, r.energyJ, r.instructions, r.ed2,
                     r.weightedEd2, r.powerDeviation, r.worstAgingRate,
                     r.projectedLifetimeYears, r.transitionLossFraction,
                     r.capViolationFraction, r.meanRecoveryMs,
                     r.degradedTimeMs, r.estErr})
        h.add(v);
    std::uint64_t ticks = 0;
    for (const PowerRun &run : r.powerTrace)
        ticks += run.ticks;
    h.add(ticks);
    for (const PowerRun &run : r.powerTrace) {
        for (std::uint64_t n = 0; n < run.ticks; ++n)
            h.add(run.powerW);
    }
    for (std::uint64_t v :
         {static_cast<std::uint64_t>(r.fallbackEngagements),
          static_cast<std::uint64_t>(r.guardRecoveries),
          static_cast<std::uint64_t>(static_cast<std::int64_t>(
              r.finalGuardTier)),
          static_cast<std::uint64_t>(r.sensorQuarantines),
          static_cast<std::uint64_t>(r.dvfsFaultsInjected),
          static_cast<std::uint64_t>(r.coresFailed), r.exactTicks,
          r.sampledTicks, r.phaseInvalidations, r.evaluatedEpochs,
          r.extrapolatedEpochs})
        h.add(v);
    return h.hash;
}

const Die &
goldenDie()
{
    static const Die die = [] {
        DieParams p;
        p.variation.gridSize = 48;
        return Die(p, 77);
    }();
    return die;
}

/** @p n SPEC applications (~150 ms phases), or traffic ones. */
std::vector<const AppProfile *>
goldenApps(std::size_t n, bool traffic = false)
{
    Rng rng(3);
    return randomWorkload(n, rng,
                          traffic ? &trafficApplications() : nullptr);
}

/** 300 ms on 16 SPEC threads, LinOpt at 60 W. */
SystemConfig
exactConfig(PmKind pm = PmKind::LinOpt)
{
    SystemConfig c;
    c.sched = SchedAlgo::VarFAppIPC;
    c.pm = pm;
    c.ptargetW = 60.0;
    c.durationMs = 300.0;
    c.sannEvals = 2000;
    c.seed = 11;
    return c;
}

/** 20k ticks of 8 traffic threads, LinOpt at 30 W, sampled. */
SystemConfig
sampledConfig(double errorBudget)
{
    SystemConfig c;
    c.sched = SchedAlgo::VarFAppIPC;
    c.pm = PmKind::LinOpt;
    c.ptargetW = 30.0;
    c.durationMs = 20000.0;
    c.seed = 5;
    c.phaseSampling.enabled = true;
    c.phaseSampling.errorBudget = errorBudget;
    c.phaseSampling.basisBlend = 0.5;
    return c;
}

/** Sampled with two core failures. */
SystemConfig
sampledFailureConfig()
{
    SystemConfig c = sampledConfig(0.01);
    c.faults.coreFailures = {{3, 4321.5}, {7, 12000.0}};
    return c;
}

SystemConfig
transientConfig()
{
    SystemConfig c = exactConfig();
    c.transientThermal = true;
    return c;
}

/** One sensor fault of each kind. */
SystemConfig
sensorFaultConfig()
{
    SystemConfig c = exactConfig();
    c.faults.sensorFaults = {
        {SensorFaultKind::StuckAt, 1, 50.0, 200.0, 0.5, 1.0},
        {SensorFaultKind::Spike, 4, 0.0, -1.0, 3.0, 0.3},
        {SensorFaultKind::Drift, 9, 100.0, -1.0, 0.02, 1.0},
        {SensorFaultKind::Dropout, 12, 150.0, 250.0, 0.0, 1.0}};
    return c;
}

SystemConfig
dvfsFaultConfig()
{
    SystemConfig c = exactConfig();
    c.faults.dvfs.failRate = 0.2;
    c.faults.dvfs.shortStepRate = 0.2;
    return c;
}

/** Two core failures, one scheduled twice (run on 20 threads). */
SystemConfig
coreFailureConfig()
{
    SystemConfig c = exactConfig();
    c.faults.coreFailures = {{2, 55.5}, {5, 120.0}, {5, 200.0}};
    return c;
}

/** The guarded manager under a stuck and a dropped-out sensor. */
SystemConfig
guardedConfig()
{
    SystemConfig c = exactConfig();
    c.guardedPm = true;
    c.faults.sensorFaults = {
        {SensorFaultKind::StuckAt, 1, 50.0, -1.0, 0.1, 1.0},
        {SensorFaultKind::Dropout, 6, 80.0, -1.0, 0.0, 1.0}};
    return c;
}

SystemResult
runGolden(const SystemConfig &config, std::size_t threads = 16,
          bool traffic = false)
{
    SystemSimulator sim(goldenDie(), goldenApps(threads, traffic),
                        config);
    return sim.run();
}

/** Check @p r against the hash recorded for the active dispatch. */
void
expectGolden(const SystemResult &r, std::uint64_t avx2,
             std::uint64_t scalar)
{
    const std::string isa = simd::activeIsa();
    if (isa != "avx2" && isa != "scalar")
        GTEST_SKIP() << "no hashes recorded for the " << isa << " kernels";
    const std::uint64_t expected = isa == "avx2" ? avx2 : scalar;
    EXPECT_EQ(digest(r), expected)
        << std::hex << "digest 0x" << digest(r) << " against 0x"
        << expected << " (" << isa << ")";
}

TEST(SystemGolden, ExactNone)
{
    const SystemResult r = runGolden(exactConfig(PmKind::None));
    EXPECT_EQ(r.exactTicks, 300u);
    expectGolden(r, 0x42f2e4a2ba95f5e0ull, 0xbd0cfc099888425full);
}

TEST(SystemGolden, ExactFoxtonStar)
{
    expectGolden(runGolden(exactConfig(PmKind::FoxtonStar)),
                 0xab88b56409064854ull, 0x2919b99a1c8f1753ull);
}

TEST(SystemGolden, ExactLinOpt)
{
    expectGolden(runGolden(exactConfig()),
                 0xbe2c10a9ebd19f33ull, 0x390f35d7fc71c862ull);
}

TEST(SystemGolden, ExactSAnn)
{
    expectGolden(runGolden(exactConfig(PmKind::SAnn)),
                 0x752db0443b279382ull, 0x20d9e95ebb232aa8ull);
}

TEST(SystemGolden, UniFreq)
{
    SystemConfig c = exactConfig(PmKind::None);
    c.uniformFrequency = true;
    expectGolden(runGolden(c, 20),
                 0x293a710cbd22be52ull, 0xbbab95bfb7a26330ull);
}

TEST(SystemGolden, SampledWithBudget)
{
    const SystemResult r = runGolden(sampledConfig(0.01), 8, true);
    EXPECT_GT(r.sampledTicks, r.exactTicks);
    expectGolden(r, 0xce541d51968d8e8aull, 0x17f3bc7b3989ad12ull);
}

TEST(SystemGolden, SampledBudgetZero)
{
    const SystemResult r = runGolden(sampledConfig(0.0), 8, true);
    EXPECT_EQ(r.sampledTicks, 0u);
    expectGolden(r, 0x0e5ccf069625458dull, 0xf563dcf84342f164ull);
}

TEST(SystemGolden, SampledCoreFailure)
{
    const SystemResult r = runGolden(sampledFailureConfig(), 8, true);
    EXPECT_GT(r.sampledTicks, 0u);
    expectGolden(r, 0x08c314d275e9c522ull, 0xd6adce1fd6e28b99ull);
}

TEST(SystemGolden, TransientThermal)
{
    expectGolden(runGolden(transientConfig()),
                 0x1aa25ecde7aa38edull, 0x17c482f32cf650ceull);
}

TEST(SystemGolden, SensorFaults)
{
    expectGolden(runGolden(sensorFaultConfig()),
                 0x44d50a7b84db1f03ull, 0x1cfa275127b1799dull);
}

TEST(SystemGolden, DvfsFaults)
{
    const SystemResult r = runGolden(dvfsFaultConfig());
    EXPECT_GT(r.dvfsFaultsInjected, 0u);
    expectGolden(r, 0xad849e1fd30d3ddaull, 0xcae1c18d731b913full);
}

TEST(SystemGolden, CoreFailures)
{
    const SystemResult r = runGolden(coreFailureConfig(), 20);
    EXPECT_EQ(r.coresFailed, 2u);
    expectGolden(r, 0x27573f2033afc945ull, 0x589e4d436ec0fcabull);
}

TEST(SystemGolden, GuardedPm)
{
    const SystemResult r = runGolden(guardedConfig());
    EXPECT_GT(r.sensorQuarantines, 0u);
    expectGolden(r, 0x25a83e1cb43e316bull, 0x884f4a0f20a60fa6ull);
}

TEST(SystemGolden, ThermalAwareScheduling)
{
    SystemConfig c = exactConfig();
    c.sched = SchedAlgo::ThermalAware;
    c.osIntervalMs = 50.0;
    expectGolden(runGolden(c, 12),
                 0xe94582ebbe276302ull, 0xbc406ae2f4e63ec1ull);
}

TEST(SystemGolden, DecisionEveryTick)
{
    SystemConfig c = exactConfig(PmKind::FoxtonStar);
    c.dvfsIntervalMs = c.tickMs;
    expectGolden(runGolden(c),
                 0x3f2c25d12dfed431ull, 0xf483a019460b9440ull);
}

TEST(SystemGolden, HalfMillisecondTick)
{
    SystemConfig c = exactConfig();
    c.tickMs = 0.5;
    const SystemResult r = runGolden(c);
    EXPECT_EQ(r.exactTicks + r.sampledTicks, 600u);
    expectGolden(r, 0x31d1955c2c9f6574ull, 0xf06605a31b168a2full);
}

TEST(SystemGolden, TenthMillisecondTick)
{
    // Phase dwells are not whole numbers of 0.1 ms ticks, and each
    // subtraction of 0.1 rounds.
    SystemConfig c = exactConfig();
    c.tickMs = 0.1;
    c.durationMs = 200.0;
    const SystemResult r = runGolden(c);
    EXPECT_EQ(r.exactTicks + r.sampledTicks, 2000u);
    expectGolden(r, 0x6653b3d946f6601full, 0x8929c8d75dc0c7a4ull);
}

TEST(SystemGolden, NoTransitionStall)
{
    SystemConfig c = exactConfig();
    c.transitionUsPerStep = 0.0;
    const SystemResult r = runGolden(c);
    EXPECT_EQ(r.transitionLossFraction, 0.0);
    expectGolden(r, 0xa73148d0a6f90d66ull, 0x4945128acf3bd54full);
}

TEST(SystemGolden, IntervalsThatDoNotNest)
{
    SystemConfig c = exactConfig();
    c.osIntervalMs = 35.0;
    c.dvfsIntervalMs = 7.0;
    expectGolden(runGolden(c),
                 0xfb3dfb2775c3038eull, 0x3f4c9bf780520adbull);
}

TEST(SystemRerun, SecondRunRepeatsFirst)
{
    // The manager and the guard are the run's: a second run() on the
    // same simulator starts from the same state as the first.
    const std::pair<const char *, SystemConfig> shapes[] = {
        {"GuardedPm", guardedConfig()},
        {"ExactSAnn", exactConfig(PmKind::SAnn)},
        {"ExactLinOpt", exactConfig()}};
    for (const auto &[name, c] : shapes) {
        SCOPED_TRACE(name);
        SystemSimulator sim(goldenDie(), goldenApps(16), c);
        const SystemResult first = sim.run();
        const SystemResult second = sim.run();
        EXPECT_EQ(digest(first), digest(second));
        EXPECT_EQ(first.fallbackEngagements, second.fallbackEngagements);
        EXPECT_EQ(first.guardRecoveries, second.guardRecoveries);
        EXPECT_EQ(first.finalGuardTier, second.finalGuardTier);
        EXPECT_EQ(first.sensorQuarantines, second.sensorQuarantines);
        EXPECT_EQ(first.meanRecoveryMs, second.meanRecoveryMs);
        EXPECT_EQ(first.degradedTimeMs, second.degradedTimeMs);
    }
}

/** A run shape of the golden matrix, for the power-trace checks. */
struct Shape
{
    const char *name;
    SystemConfig config;
    std::size_t threads = 16;
    bool traffic = false;
};

std::vector<Shape>
traceShapes()
{
    SystemConfig halfTick = exactConfig();
    halfTick.tickMs = 0.5;
    return {{"ExactNone", exactConfig(PmKind::None)},
            {"ExactLinOpt", exactConfig()},
            {"ExactSAnn", exactConfig(PmKind::SAnn)},
            {"SampledWithBudget", sampledConfig(0.01), 8, true},
            {"SampledBudgetZero", sampledConfig(0.0), 8, true},
            {"SampledCoreFailure", sampledFailureConfig(), 8, true},
            {"TransientThermal", transientConfig()},
            {"SensorFaults", sensorFaultConfig()},
            {"DvfsFaults", dvfsFaultConfig()},
            {"CoreFailures", coreFailureConfig(), 20},
            {"GuardedPm", guardedConfig()},
            {"HalfMillisecondTick", halfTick}};
}

/** The trace's runs expanded to one sample per tick. */
std::vector<double>
perTick(const std::vector<PowerRun> &trace)
{
    std::vector<double> samples;
    for (const PowerRun &run : trace)
        samples.insert(samples.end(), run.ticks, run.powerW);
    return samples;
}

TEST(PowerTrace, AppendMergesBitEqualPowerOnly)
{
    std::vector<PowerRun> trace;
    appendPowerRun(trace, 1.5, 3);
    appendPowerRun(trace, 1.5, 2);
    EXPECT_EQ(trace, (std::vector<PowerRun>{{1.5, 5}}));
    // +0 == -0, but their bits differ: two runs.
    appendPowerRun(trace, 0.0, 1);
    appendPowerRun(trace, -0.0, 1);
    ASSERT_EQ(trace.size(), 3u);
    EXPECT_FALSE(std::signbit(trace[1].powerW));
    EXPECT_TRUE(std::signbit(trace[2].powerW));
    // A NaN is != itself, but its bits repeat: one run.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    appendPowerRun(trace, nan, 1);
    appendPowerRun(trace, nan, 4);
    ASSERT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace[3].ticks, 5u);
}

TEST(PowerTrace, CanonicalOnGoldenShapes)
{
    for (const Shape &s : traceShapes()) {
        SCOPED_TRACE(s.name);
        const SystemResult r = runGolden(s.config, s.threads, s.traffic);
        std::uint64_t ticks = 0;
        for (std::size_t i = 0; i < r.powerTrace.size(); ++i) {
            EXPECT_GT(r.powerTrace[i].ticks, 0u) << "run " << i;
            if (i > 0) {
                EXPECT_NE(std::bit_cast<std::uint64_t>(
                              r.powerTrace[i - 1].powerW),
                          std::bit_cast<std::uint64_t>(
                              r.powerTrace[i].powerW))
                    << "runs " << i - 1 << " and " << i;
            }
            ticks += r.powerTrace[i].ticks;
        }
        EXPECT_EQ(ticks, r.exactTicks + r.sampledTicks);
        EXPECT_EQ(ticks, static_cast<std::uint64_t>(std::llround(
                             s.config.durationMs / s.config.tickMs)));
    }
}

TEST(PowerTrace, CapViolationMatchesPerTickReference)
{
    std::size_t withViolations = 0;
    for (const Shape &s : traceShapes()) {
        SCOPED_TRACE(s.name);
        const SystemResult r = runGolden(s.config, s.threads, s.traffic);
        const std::vector<double> samples = perTick(r.powerTrace);
        ASSERT_FALSE(samples.empty());
        // Tolerances around the run's spread, so some ticks violate.
        for (double tol : {0.05, 0.0, -0.05, -0.2}) {
            const double limit = s.config.ptargetW * (1.0 + tol);
            std::size_t violated = 0;
            for (double p : samples)
                violated += p > limit ? 1 : 0;
            const double reference = static_cast<double>(violated) /
                static_cast<double>(samples.size());
            EXPECT_EQ(capViolationFraction(r.powerTrace,
                                           s.config.ptargetW, tol),
                      reference)
                << "tol " << tol;
            withViolations += violated > 0 ? 1 : 0;
        }
        if (s.config.pm != PmKind::None) {
            EXPECT_EQ(r.capViolationFraction,
                      capViolationFraction(r.powerTrace,
                                           s.config.ptargetW));
        }
    }
    EXPECT_GT(withViolations, 0u);
}

TEST(PowerTrace, LongHorizonStaysSparse)
{
    // The long-horizon shape, 50k ticks: the trace holds one run per
    // change of power, not one sample per tick.
    SystemConfig c = sampledConfig(0.01);
    c.durationMs = 50000.0;
    const SystemResult r = runGolden(c, 8, true);
    const double ticks = static_cast<double>(r.exactTicks + r.sampledTicks);
    EXPECT_EQ(ticks, 50000.0);
    EXPECT_LT(static_cast<double>(r.powerTrace.size()) / ticks, 0.05);
}

} // namespace
} // namespace varsched
