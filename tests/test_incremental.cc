/**
 * @file
 * Tests for the incremental-evaluation paths introduced with the
 * tick-loop optimisation: the warm-started leakage-temperature fixed
 * point, the purity/bit-identity guarantees the steady-state condition
 * cache rests on, O(1) delta scoring in the SAnn annealer and the
 * exhaustive odometer (cross-checked against full rescoring).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "chip/die.hh"
#include "chip/sensors.hh"
#include "core/exhaustive.hh"
#include "core/sann.hh"
#include "core/system.hh"
#include "solver/annealing.hh"
#include "power/leakage.hh"
#include "solver/rng.hh"
#include "varius/field.hh"

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

std::vector<CoreWork>
fullLoad(const Die &die)
{
    std::vector<CoreWork> work(die.numCores());
    const auto &apps = specApplications();
    for (std::size_t c = 0; c < work.size(); ++c)
        work[c].app = &apps[c % apps.size()];
    return work;
}

/** Exact equality of two settled conditions, field by field. */
void
expectBitIdentical(const ChipCondition &a, const ChipCondition &b)
{
    EXPECT_EQ(a.corePowerW, b.corePowerW);
    EXPECT_EQ(a.coreTempC, b.coreTempC);
    EXPECT_EQ(a.coreFreqHz, b.coreFreqHz);
    EXPECT_EQ(a.coreIpc, b.coreIpc);
    EXPECT_EQ(a.coreMips, b.coreMips);
    EXPECT_EQ(a.l2TempC, b.l2TempC);
    EXPECT_EQ(a.l2PowerW, b.l2PowerW);
    EXPECT_EQ(a.totalPowerW, b.totalPowerW);
    EXPECT_EQ(a.totalMips, b.totalMips);
    EXPECT_EQ(a.spreaderC, b.spreaderC);
    EXPECT_EQ(a.sinkC, b.sinkC);
}

/** Random snapshot with increasing-in-level power/frequency tables. */
ChipSnapshot
randomSnapshot(Rng &rng, std::size_t n)
{
    ChipSnapshot snap;
    snap.voltage = {0.6, 0.7, 0.8, 0.9, 1.0};
    snap.uncorePowerW = 2.0;
    double fullPower = snap.uncorePowerW;
    double maxCore = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        CoreSnapshot core;
        core.coreId = i;
        core.threadId = i;
        const double ipc = 0.5 + 1.5 * rng.uniform();
        const double pScale = 3.0 + 4.0 * rng.uniform();
        core.refMips = 1000.0 + 4000.0 * rng.uniform();
        for (double v : snap.voltage) {
            snap.freqHz.push_back(4.0e9 * (v - 0.2) / 0.8 *
                                  (0.9 + 0.2 * rng.uniform()));
            snap.ipc.push_back(ipc * (0.95 + 0.1 * rng.uniform()));
            snap.powerW.push_back(pScale * v * v *
                                  (1.0 + 0.05 * rng.uniform()));
        }
        maxCore = std::max(maxCore, snap.powerW.back());
        fullPower += snap.powerW.back();
        snap.cores.push_back(core);
    }
    snap.ptargetW = 0.55 * fullPower;
    snap.pcoreMaxW = 0.85 * maxCore;
    return snap;
}

/**
 * The pre-incremental SAnn energy: full O(n) rescore per candidate,
 * with the best-feasible side channel. Kept verbatim as the reference
 * the delta path must reproduce.
 */
std::function<double(const std::vector<int> &)>
legacyEnergy(const ChipSnapshot &snap, double penaltyPerWatt,
             bool weighted, std::vector<int> &bestFeasible,
             double &bestFeasibleMips)
{
    return [&snap, penaltyPerWatt, weighted, &bestFeasible,
            &bestFeasibleMips](const std::vector<int> &levels) {
        const double mips = weighted ? snap.weightedAt(levels) * 2000.0
                                     : snap.mipsAt(levels);
        double e = -mips / 1000.0;
        bool feasible = true;
        const double power = snap.powerAt(levels);
        if (power > snap.ptargetW) {
            e += (power - snap.ptargetW) * penaltyPerWatt;
            feasible = false;
        }
        for (std::size_t i = 0; i < snap.cores.size(); ++i) {
            const double cp = snap.powerRow(i)[
                static_cast<std::size_t>(levels[i])];
            if (cp > snap.pcoreMaxW) {
                e += (cp - snap.pcoreMaxW) * penaltyPerWatt;
                feasible = false;
            }
        }
        if (feasible && mips > bestFeasibleMips) {
            bestFeasibleMips = mips;
            bestFeasible = levels;
        }
        return e;
    };
}

TEST(WarmStartThermal, MatchesColdFixedPointOnRandomDies)
{
    for (std::uint64_t seed : {3u, 17u, 29u}) {
        Die die(testParams(), seed);
        ChipEvaluator ev(die);
        const auto work = fullLoad(die);
        const int top = static_cast<int>(die.maxLevel());

        std::vector<int> levelsA(die.numCores(), top);
        std::vector<int> levelsB(die.numCores());
        for (std::size_t c = 0; c < levelsB.size(); ++c)
            levelsB[c] = static_cast<int>(c % (die.maxLevel() + 1));

        const auto condA = ev.evaluate(work, levelsA);
        const auto cold = ev.evaluate(work, levelsB);
        const auto warm = ev.evaluate(work, levelsB, 0.0, &condA);

        for (std::size_t c = 0; c < die.numCores(); ++c)
            EXPECT_NEAR(warm.coreTempC[c], cold.coreTempC[c], 0.1)
                << "seed " << seed << " core " << c;
        for (std::size_t l = 0; l < cold.l2TempC.size(); ++l)
            EXPECT_NEAR(warm.l2TempC[l], cold.l2TempC[l], 0.1);
        EXPECT_NEAR(warm.totalPowerW, cold.totalPowerW,
                    0.001 * cold.totalPowerW);
        EXPECT_NEAR(warm.totalMips, cold.totalMips,
                    0.001 * cold.totalMips);
    }
}

TEST(WarmStartThermal, RepeatedEvaluateIsBitIdentical)
{
    // The steady-state condition cache reuses a previous solution
    // verbatim when (work, levels) are unchanged; that is only exact
    // if evaluate() is a pure function whose scratch reuse never
    // leaks state between calls.
    Die die(testParams(), 11);
    ChipEvaluator ev(die);
    const auto work = fullLoad(die);
    const std::vector<int> a(die.numCores(), 8);
    const std::vector<int> b(die.numCores(), 2);

    const auto first = ev.evaluate(work, a);
    const auto other = ev.evaluate(work, b); // pollute scratch
    (void)other;
    const auto again = ev.evaluate(work, a);
    expectBitIdentical(first, again);
}

TEST(WarmStartThermal, EvaluateIntoSupportsAliasedWarmSeed)
{
    Die die(testParams(), 11);
    ChipEvaluator ev(die);
    const auto work = fullLoad(die);
    const std::vector<int> a(die.numCores(), 8);
    std::vector<int> b(die.numCores(), 4);

    ChipCondition out = ev.evaluate(work, a);
    const ChipCondition seedCopy = out;
    const auto ref = ev.evaluate(work, b, 0.0, &seedCopy);
    ev.evaluateInto(out, work, b, 0.0, &out); // warm seed aliases out
    expectBitIdentical(out, ref);
}

TEST(SystemIncremental, WarmOnMatchesWarmOffWithinHalfPercent)
{
    Die die(testParams(), 7);
    const auto &apps = specApplications();
    std::vector<const AppProfile *> threads;
    for (std::size_t t = 0; t < 8; ++t)
        threads.push_back(&apps[t % apps.size()]);

    SystemConfig config;
    config.sched = SchedAlgo::VarFAppIPC;
    config.pm = PmKind::LinOpt;
    config.ptargetW = 30.0;
    config.durationMs = 120.0;
    config.seed = 5;

    SystemConfig coldCfg = config;
    coldCfg.warmStartThermal = false;

    const auto warm = SystemSimulator(die, threads, config).run();
    const auto cold = SystemSimulator(die, threads, coldCfg).run();

    EXPECT_NEAR(warm.avgMips, cold.avgMips, 0.005 * cold.avgMips);
    EXPECT_NEAR(warm.avgPowerW, cold.avgPowerW,
                0.005 * cold.avgPowerW);
    EXPECT_NEAR(warm.avgWeightedIpc, cold.avgWeightedIpc,
                0.005 * cold.avgWeightedIpc);
    EXPECT_NEAR(warm.energyJ, cold.energyJ, 0.005 * cold.energyJ);
}

TEST(SystemIncremental, RunsAreDeterministic)
{
    // The condition cache and scratch reuse must not make run()
    // depend on anything but (die, workload, config).
    Die die(testParams(), 13);
    const auto &apps = specApplications();
    std::vector<const AppProfile *> threads;
    for (std::size_t t = 0; t < 6; ++t)
        threads.push_back(&apps[t % apps.size()]);

    // SAnn and LinOpt draw per-epoch noise and SAnn per-epoch seeds:
    // a rerun must land on the same streams.
    for (const PmKind pm :
         {PmKind::FoxtonStar, PmKind::SAnn, PmKind::LinOpt}) {
        SCOPED_TRACE(pmKindName(pm));
        SystemConfig config;
        config.pm = pm;
        config.ptargetW = 25.0;
        config.durationMs = 80.0;
        config.sannEvals = 2000;
        config.seed = 9;

        const auto r1 = SystemSimulator(die, threads, config).run();
        const auto r2 = SystemSimulator(die, threads, config).run();
        EXPECT_EQ(r1.powerTrace, r2.powerTrace);
        EXPECT_EQ(r1.avgMips, r2.avgMips);
        EXPECT_EQ(r1.energyJ, r2.energyJ);
    }
}

TEST(SAnnDelta, AnnealerMatchesLegacyFullRescore)
{
    Rng rng(0xFEED);
    for (int trial = 0; trial < 8; ++trial) {
        const std::size_t n = 2 + static_cast<std::size_t>(trial % 6);
        const auto snap = randomSnapshot(rng, n);
        for (const bool weighted : {false, true}) {
            std::vector<int> legacyBest;
            double legacyBestMips = -1.0;
            const auto legacy = legacyEnergy(snap, kPenaltyPerWatt, weighted,
                                             legacyBest,
                                             legacyBestMips);
            SnapshotAnnealEnergy delta(snap, weighted);

            AnnealOptions opts;
            opts.maxEvals = 4000;
            opts.initialTemp = 0.4 * static_cast<double>(n);
            opts.seed = 0xA55 + static_cast<std::uint64_t>(trial);

            const std::vector<int> initial(n, 4);
            const std::vector<int> bounds(n, 5);
            const auto a = annealMinimize(initial, bounds, legacy,
                                          opts);
            const auto b = annealMinimize(initial, bounds, delta,
                                          opts);

            EXPECT_EQ(a.best, b.best)
                << "trial " << trial << " weighted " << weighted;
            EXPECT_EQ(a.evals, b.evals);
            EXPECT_EQ(a.accepted, b.accepted);
            EXPECT_NEAR(a.bestEnergy, b.bestEnergy,
                        1e-9 * std::max(1.0, std::abs(a.bestEnergy)));
            EXPECT_EQ(legacyBest, delta.bestFeasible());
        }
    }
}

TEST(SAnnDelta, EvalThroughputIsLevelWithCoreCount)
{
    // The delta path scores each move in O(1); going 5 -> 20 cores
    // must not scale per-eval cost anywhere near the 4x a full
    // rescore would. Allow 2x for the O(n) proposal draws.
    Rng rng(0xBEEF);
    const auto small = randomSnapshot(rng, 5);
    const auto large = randomSnapshot(rng, 20);

    SAnnConfig cfg;
    cfg.maxEvals = 60000;
    SAnnManager pm(cfg);

    const auto timeOne = [&](const ChipSnapshot &snap) {
        (void)pm.selectLevels(snap); // warm the caches
        double best = 1e300;
        for (int rep = 0; rep < 3; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            (void)pm.selectLevels(snap);
            best = std::min(best,
                            std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count());
        }
        return best / static_cast<double>(cfg.maxEvals);
    };

    const double perEvalSmall = timeOne(small);
    const double perEvalLarge = timeOne(large);
    EXPECT_LT(perEvalLarge, 2.0 * perEvalSmall)
        << "per-eval " << perEvalSmall << "s at 5 cores vs "
        << perEvalLarge << "s at 20 cores";
}

TEST(ExhaustiveDelta, MatchesFullRescoreOnRandomSnapshots)
{
    Rng rng(0xCAFE);
    for (int trial = 0; trial < 6; ++trial) {
        const std::size_t n = 2 + static_cast<std::size_t>(trial % 2);
        const auto snap = randomSnapshot(rng, n);
        for (const auto objective :
             {PmObjective::Throughput, PmObjective::Weighted}) {
            ExhaustiveManager pm(20'000'000, objective);
            const auto fast = pm.selectLevels(snap);
            EXPECT_EQ(pm.lastStates(),
                      static_cast<std::size_t>(std::pow(5.0,
                          static_cast<double>(n))));

            // Reference: the pre-incremental full-rescore odometer.
            std::vector<int> state(n, 0), best(n, 0);
            double bestMips = -1.0;
            const int numLevels =
                static_cast<int>(snap.voltage.size());
            for (;;) {
                if (snap.feasible(state)) {
                    const double mips =
                        objective == PmObjective::Weighted
                        ? snap.weightedAt(state)
                        : snap.mipsAt(state);
                    if (mips > bestMips) {
                        bestMips = mips;
                        best = state;
                    }
                }
                std::size_t pos = 0;
                while (pos < n) {
                    if (++state[pos] < numLevels)
                        break;
                    state[pos] = 0;
                    ++pos;
                }
                if (pos == n)
                    break;
            }
            if (bestMips < 0.0)
                best.assign(n, 0);
            EXPECT_EQ(fast, best)
                << "trial " << trial << " objective "
                << static_cast<int>(objective);
        }
    }
}

TEST(ExhaustiveDelta, AllInfeasibleReturnsFloor)
{
    Rng rng(0x1234);
    auto snap = randomSnapshot(rng, 3);
    snap.ptargetW = 0.1; // unreachable even at the bottom level
    ExhaustiveManager pm;
    EXPECT_EQ(pm.selectLevels(snap), (std::vector<int>{0, 0, 0}));
}

// Field generation is a pure function of the generator's state: the
// same state gives bit-identical fields and leaves the stream at the
// same place, so downstream draws (core timing, workloads) continue
// identically; a different state gives a different field.
TEST(FieldDeterminism, SameStateGivesSameFieldAndStream)
{
    const auto expectSameField = [](const FieldSample &x,
                                    const FieldSample &y) {
        ASSERT_EQ(x.size(), y.size());
        for (std::size_t r = 0; r < x.size(); ++r)
            for (std::size_t c = 0; c < x.size(); ++c)
                ASSERT_EQ(x.at(r, c), y.at(r, c));
    };

    Rng a(0xF1E1D);
    const FieldSample first = generateField(96, 0.5, a);
    Rng b(0xF1E1D);
    const FieldSample second = generateField(96, 0.5, b);
    expectSameField(first, second);
    EXPECT_EQ(a.uniform(), b.uniform());

    // Cholesky is O(n^6), so its pair runs on a small grid.
    for (const auto &[n, method] :
         {std::pair{std::size_t{96}, FieldMethod::CirculantFFT},
          std::pair{std::size_t{12}, FieldMethod::Cholesky}}) {
        Rng pairA(0xF1E1D), pairB(0xF1E1D);
        FieldSample a1, a2, b1, b2;
        generateFieldPair(n, 0.5, pairA, method, a1, a2);
        generateFieldPair(n, 0.5, pairB, method, b1, b2);
        expectSameField(a1, b1);
        expectSameField(a2, b2);
        EXPECT_EQ(pairA.uniform(), pairB.uniform());
    }

    Rng c(0xF1E1E);
    const FieldSample third = generateField(96, 0.5, c);
    EXPECT_NE(third.at(0, 0), first.at(0, 0));
}

// corePowerSampled on sampleCoreVth output is the exact fold
// corePower performs — bit-equal, not just close — which is what lets
// the Die pre-sample its field at manufacture without perturbing any
// downstream physics.
TEST(LeakageSampleCache, SampledFoldMatchesLiveSamplingBitExactly)
{
    const DieParams params = testParams();
    Rng rng(0x1EAF);
    const VariationMap map = generateVariationMap(params.variation, rng);
    const Floorplan plan(params.numCores, params.dieAreaMm2);
    const LeakageModel model(params.leakage);

    for (std::size_t core = 0; core < params.numCores; core += 5) {
        const std::vector<double> samples =
            model.sampleCoreVth(map, plan, core);
        ASSERT_EQ(samples.size(), params.leakage.samplesPerEdge *
                                      params.leakage.samplesPerEdge);
        for (const double v : {0.6, 0.85, 1.0}) {
            for (const double t : {45.0, 60.0, 95.0}) {
                EXPECT_EQ(model.corePower(map, plan, core, v, t, -0.02),
                          model.corePowerSampled(samples,
                                                 map.vthSigmaRandom(), v,
                                                 t, -0.02));
            }
        }
    }
}

// The die's own path folds a per-core table fitted at manufacture, so
// it agrees with live sampling to the table's contract, not bit for
// bit (LeakageTable.MatchesSweep holds it over the whole range).
TEST(LeakageTable, DiePathMatchesLiveSampling)
{
    const DieParams params = testParams();
    const LeakageModel model(params.leakage);
    const Die die(params, 0xD1E5EED);
    for (std::size_t core = 0; core < die.numCores(); core += 7) {
        const double live =
            model.corePower(die.variationMap(), die.floorplan(), core, 0.9,
                            72.5, die.vthBias(core));
        EXPECT_NEAR(die.leakagePower(core, 0.9, 72.5), live, 1e-13 * live);
    }
}

} // namespace
} // namespace varsched
