/**
 * @file
 * The primitives the run-length tick loop replays quiet ticks with:
 * counting the ticks to a phase sequencer's next draw, repeating the
 * wear accounting, and observing one signature for many ticks. Each
 * must agree exactly with the one-tick-at-a-time calls. Also the
 * loop's iteration counter, which shows that quiet ticks are replayed
 * rather than run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "chip/die.hh"
#include "cmpsim/workload.hh"
#include "core/system.hh"
#include "reliability/wearout.hh"
#include "runtime/metrics.hh"
#include "runtime/phase.hh"
#include "solver/rng.hh"

namespace varsched
{
namespace
{

constexpr int kDrawsPerSequencer = 4;

/**
 * ticksToBoundary against single advance() calls, across several phase
 * draws: the phase holds for the counted ticks less one, and a step
 * counts one tick fewer. Returns how many counted ticks left another
 * phase current; the rest drew a dwell too short for the tick and drew
 * again, back to the phase they left.
 */
int
countedTicksThatChangePhase(const AppProfile &app, std::uint64_t seed,
                            double dtMs)
{
    PhaseSequencer seq(app, Rng(seed));
    int changed = 0;
    for (int draw = 0; draw < kDrawsPerSequencer; ++draw) {
        const std::size_t toBoundary = seq.ticksToBoundary(dtMs);
        EXPECT_GE(toBoundary, 1u);
        const std::size_t phase = seq.currentIndex();
        for (std::size_t i = 1; i < toBoundary; ++i) {
            seq.advance(dtMs);
            EXPECT_EQ(seq.currentIndex(), phase)
                << "drew early: seed " << seed << " dt " << dtMs;
            // Counting costs a subtraction per tick left: check the
            // first and last steps only.
            if (i == 1 || i + 1 == toBoundary) {
                EXPECT_EQ(seq.ticksToBoundary(dtMs), toBoundary - i)
                    << "seed " << seed << " dt " << dtMs;
            }
        }
        seq.advance(dtMs);
        changed += seq.currentIndex() != phase ? 1 : 0;
    }
    return changed;
}

TEST(TickReplay, PhaseBoundaryEqualsSingleAdvances)
{
    const AppProfile &spec = specApplications()[2];
    const AppProfile &traffic = trafficApplications()[0];
    for (double dtMs : {1.0, 0.5, 0.1}) {
        int counted = 0, changed = 0;
        for (std::uint64_t seed = 1; seed <= 200; ++seed) {
            changed += countedTicksThatChangePhase(spec, seed, dtMs);
            counted += kDrawsPerSequencer;
            // Traffic dwells are seconds long: thousands of inexact
            // subtractions at 0.1 ms.
            if (seed % 10 == 0) {
                changed += countedTicksThatChangePhase(traffic, seed, dtMs);
                counted += kDrawsPerSequencer;
            }
        }
        // A count one short would leave nearly every counted tick in
        // its phase; a redraw back to it is rare.
        EXPECT_GE(changed, counted * 95 / 100) << "dt " << dtMs;
    }
}

TEST(TickReplay, WearRepeatEqualsSingleRepeats)
{
    const WearoutModel model;
    Rng rng(17);
    for (std::size_t ticks : {0u, 1u, 2u, 7u, 1000u}) {
        WearoutTracker batched(model, 6);
        WearoutTracker single(model, 6);
        std::vector<double> temps(6), vdd(6);
        for (std::size_t c = 0; c < 6; ++c) {
            temps[c] = 45.0 + 40.0 * rng.uniform();
            vdd[c] = c == 3 ? 0.0 : 0.8 + 0.4 * rng.uniform();
        }
        batched.accumulate(temps, vdd, 0.1);
        single.accumulate(temps, vdd, 0.1);
        batched.repeat(0.1, ticks);
        for (std::size_t n = 0; n < ticks; ++n)
            single.repeat(0.1);
        EXPECT_EQ(batched.averageRates(), single.averageRates());
        EXPECT_EQ(batched.projectedLifetimeYears(),
                  single.projectedLifetimeYears());
    }
}

std::vector<std::uint64_t>
signature(std::uint64_t base, std::size_t changed)
{
    std::vector<std::uint64_t> sig(8);
    for (std::size_t i = 0; i < sig.size(); ++i)
        sig[i] = base + i + (i < changed ? 1000 : 0);
    return sig;
}

/** Everything a caller can see of two samplers, and of each after
 *  more observes and a freeze (which tells Armed from Unstable). */
void
expectSameSampler(const PhaseSampler &a, const PhaseSampler &b,
                  const std::vector<std::uint64_t> &probe)
{
    EXPECT_EQ(a.steady(), b.steady());
    EXPECT_EQ(a.extrapolating(), b.extrapolating());
    EXPECT_EQ(a.currentPeriod(), b.currentPeriod());
    const PhaseSamplerStats &sa = a.stats(), &sb = b.stats();
    EXPECT_EQ(sa.extrapolatedEpochs, sb.extrapolatedEpochs);
    for (std::size_t i = 0; i < kNumPhaseInvalidations; ++i)
        EXPECT_EQ(sa.invalidations[i], sb.invalidations[i]) << i;
    // Feed the probe until the window must be complete; after each
    // observe, a freeze tells how far both windows had got.
    PhaseSampler oa = a, ob = b;
    for (int n = 0; n <= kPhaseHysteresisTicks + 1; ++n) {
        PhaseSampler fa = oa, fb = ob;
        fa.freezeBasis(probe);
        fb.freezeBasis(probe);
        EXPECT_EQ(fa.steady(), fb.steady()) << n;
        oa.observeTick(probe);
        ob.observeTick(probe);
    }
}

TEST(TickReplay, SamplerObserveTicksEqualsSingleObserves)
{
    PhaseSamplingConfig cfg;
    cfg.enabled = true;
    cfg.maxChurnFraction = 0.25; // 2 of 8 slots may drift
    const auto base = signature(100, 0);
    const auto near = signature(100, 2);
    const auto far = signature(100, 5);
    // Starting points: fresh, partway through the window on a
    // candidate, and steady on a frozen basis.
    std::vector<PhaseSampler> starts(3, PhaseSampler(cfg, 8));
    starts[1].observeTick(base);
    starts[1].observeTick(base);
    for (int i = 0; i < 6; ++i)
        starts[2].observeTick(base);
    starts[2].freezeBasis(base);
    ASSERT_TRUE(starts[2].steady());
    for (const PhaseSampler &start : starts) {
        for (const auto *sig : {&base, &near, &far}) {
            // Every run length across the hysteresis threshold.
            for (std::size_t ticks = 0; ticks <= 2 * kPhaseHysteresisTicks + 2;
                 ++ticks) {
                PhaseSampler batched = start, single = start;
                const bool batchedForced = batched.observeTicks(*sig, ticks);
                bool singleForced = false;
                for (std::size_t n = 0; n < ticks; ++n)
                    singleForced = single.observeTick(*sig);
                EXPECT_EQ(batchedForced, singleForced) << ticks;
                expectSameSampler(batched, single, *sig);
                expectSameSampler(batched, single, base);
            }
        }
    }
}

/** Loop iterations per simulated tick of one run. */
double
iterationsPerTick(const SystemConfig &config, std::size_t threads,
                  bool traffic)
{
    static const Die die = [] {
        DieParams p;
        p.variation.gridSize = 48;
        return Die(p, 77);
    }();
    Rng rng(3);
    SystemSimulator sim(
        die,
        randomWorkload(threads, rng,
                       traffic ? &trafficApplications() : nullptr),
        config);
    metrics::Counter &iterations =
        metrics::Registry::global().counter("core.tick.iterations");
    const std::uint64_t before = iterations.value();
    const SystemResult r = sim.run();
    return static_cast<double>(iterations.value() - before) /
        static_cast<double>(r.powerTrace.size());
}

TEST(TickReplay, LongHorizonRunsAFewIterationsPerTick)
{
    // The long-horizon benchmark's shape: traffic threads, LinOpt at
    // 30 W, phase-sampled.
    SystemConfig c;
    c.sched = SchedAlgo::VarFAppIPC;
    c.pm = PmKind::LinOpt;
    c.ptargetW = 30.0;
    c.durationMs = 20000.0;
    c.phaseSampling.enabled = true;
    c.phaseSampling.basisBlend = 0.5;
    EXPECT_LE(iterationsPerTick(c, 8, true), 0.2);
    c.phaseSampling.enabled = false;
    EXPECT_LE(iterationsPerTick(c, 8, true), 0.2);
}

TEST(TickReplay, TransientRunsIterateEveryTick)
{
    SystemConfig c;
    c.pm = PmKind::LinOpt;
    c.ptargetW = 60.0;
    c.durationMs = 200.0;
    c.transientThermal = true;
    EXPECT_EQ(iterationsPerTick(c, 16, false), 1.0);
}

TEST(TickReplay, GuardedRunsReplayQuietTicks)
{
    // The guard scores a quiet run in one call, so a guarded run
    // iterates per event like any other (0.325 per tick here).
    SystemConfig c;
    c.pm = PmKind::LinOpt;
    c.ptargetW = 60.0;
    c.durationMs = 200.0;
    c.guardedPm = true;
    EXPECT_LT(iterationsPerTick(c, 16, false), 1.0);
}

} // namespace
} // namespace varsched
