/**
 * @file
 * Physics contracts of the leakage kernel and the leakage-temperature
 * settle, each over a seed sweep:
 *
 *  - LeakageKernelOracle: snapshot powers, L2 leakage and every dP/dT
 *    agree with the per-sample long-double oracle (leakage_oracle.hh)
 *    within 1e-12, at sigma/mu 0.06, 0.12 and 0.18, ABB dies
 *    included.
 *  - SettleContract: every settle returns temperatures within 0.01 C
 *    of T = min(Φ(T), 150) with the powers of those temperatures,
 *    runaway (clamped) points included, and the settle's noise-free
 *    round count stays at its measured level.
 *  - LeakageTable: the per-core table the die fits at manufacture
 *    agrees with the exp sweep within 1e-13 over its range, is the
 *    sweep bit for bit outside it, and settles and snapshots never
 *    leave the range.
 *
 * The physics_contract ctest label reruns these suites.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "chip/die.hh"
#include "chip/sensors.hh"
#include "core/system.hh"
#include "runtime/metrics.hh"
#include "solver/rng.hh"
#include "tests/leakage_oracle.hh"

namespace varsched
{
namespace
{

constexpr double kContractTol = 1e-12;
constexpr std::uint64_t kSeeds = 40;

::testing::AssertionResult
relClose(long double want, double got, double tol = kContractTol)
{
    const long double scale =
        std::max(std::abs(want), static_cast<long double>(std::abs(got)));
    const long double err = std::abs(want - static_cast<long double>(got));
    if (err <= tol * scale)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << got << " vs oracle " << static_cast<double>(want) << ": "
        << static_cast<double>(err / scale) << " relative";
}

DieParams
contractParams(double sigmaOverMu, double abbStrength)
{
    DieParams p;
    p.variation.gridSize = 48; // keep die construction cheap
    p.variation.vthSigmaOverMu = sigmaOverMu;
    p.abbStrength = abbStrength;
    return p;
}

/** Every core busy with a random application and phase. */
std::vector<CoreWork>
randomWork(const Die &die, Rng &rng, double idleShare = 0.0)
{
    const auto &apps = specApplications();
    std::vector<CoreWork> work(die.numCores());
    for (CoreWork &w : work) {
        if (rng.uniform() < idleShare)
            continue;
        w.app = &apps[rng.below(apps.size())];
        w.cpiScale = rng.uniform(0.8, 1.2);
        w.missScale = rng.uniform(0.5, 1.5);
        w.activityScale = rng.uniform(0.8, 1.2);
    }
    return work;
}

/** The contract's die sweep: kSeeds seeds at each sigma/mu, odd
 *  seeds with half-strength ABB. */
template <class Check>
void
forEachContractDie(Check check)
{
    std::size_t biasedCores = 0;
    for (const double sigma : {0.06, 0.12, 0.18}) {
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
            const Die die(contractParams(sigma, seed % 2 ? 0.5 : 0.0),
                          seed);
            for (std::size_t c = 0; c < die.numCores(); ++c)
                biasedCores += die.vthBias(c) != 0.0;
            Rng rng(seed * 977 + static_cast<std::uint64_t>(sigma * 100));
            check(die, rng);
        }
    }
    EXPECT_GT(biasedCores, 0u) << "the sweep must include ABB cores";
}

TEST(LeakageKernelOracle, SnapshotPowersMatchOracle)
{
    forEachContractDie([](const Die &die, Rng &rng) {
        const ChipEvaluator ev(die);
        const auto work = randomWork(die, rng);
        ChipCondition cond;
        for (std::size_t c = 0; c < die.numCores(); ++c)
            cond.coreTempC.push_back(rng.uniform(45.0, 140.0));
        const ChipSnapshot snap = buildSnapshot(ev, work, cond, 1e9, 1e9);
        ASSERT_EQ(snap.cores.size(), die.numCores());

        const LeakageParams &lp = die.params().leakage;
        for (std::size_t i = 0; i < snap.cores.size(); ++i) {
            const std::size_t c = snap.cores[i].coreId;
            const auto freq = snap.freqRow(i);
            const auto power = snap.powerRow(i);
            const auto samples = die.leakageModel().sampleCoreVth(
                die.variationMap(), die.floorplan(), c);
            for (std::size_t l = 0; l < die.numLevels(); ++l) {
                const double v = die.voltage(l);
                const long double want =
                    ev.dynamicPower(work[c], v, freq[l]) +
                    oracle::corePower(lp, samples,
                                      die.variationMap().vthSigmaRandom(),
                                      v, cond.coreTempC[c],
                                      die.vthBias(c));
                EXPECT_TRUE(relClose(want, power[l]))
                    << "die " << die.seed() << " core " << c << " level "
                    << l;
            }
        }
    });
}

TEST(LeakageKernelOracle, SlopesMatchCentralDifference)
{
    forEachContractDie([](const Die &die, Rng &rng) {
        const LeakageParams &lp = die.params().leakage;
        const double sigmaRandom = die.variationMap().vthSigmaRandom();
        for (std::size_t c = 0; c < die.numCores(); c += 3) {
            const double tempC = rng.uniform(45.0, 140.0);
            const auto samples = die.leakageModel().sampleCoreVth(
                die.variationMap(), die.floorplan(), c);
            const CoreLeakageKernel kernel = die.leakageKernel(c, tempC);
            for (std::size_t l = 0; l < die.numLevels(); l += 4) {
                const double v = die.voltage(l);
                double slope = 0.0;
                const double power =
                    die.leakageModel().corePowerAt(kernel, v, &slope);
                const auto atTemp = [&](long double t) {
                    return oracle::corePower(lp, samples, sigmaRandom, v, t,
                                             die.vthBias(c));
                };
                EXPECT_TRUE(relClose(atTemp(tempC), power));
                EXPECT_TRUE(relClose(oracle::slope(atTemp, tempC), slope))
                    << "die " << die.seed() << " core " << c << " level "
                    << l << " T " << tempC;
            }
        }

        const Floorplan &plan = die.floorplan();
        for (std::size_t b = 0; b < plan.l2Blocks().size(); ++b) {
            const Rect &r = plan.blocks()[plan.l2Blocks()[b]].rect;
            const double vthLocal = die.variationMap().vthAt(r.cx(), r.cy());
            const double tempC = rng.uniform(45.0, 140.0);
            double slope = 0.0;
            const double power = die.l2LeakagePower(b, 1.0, tempC, &slope);
            const auto atTemp = [&](long double t) {
                return oracle::l2Power(lp, vthLocal, 1.0, t);
            };
            EXPECT_TRUE(relClose(atTemp(tempC), power));
            EXPECT_TRUE(relClose(oracle::slope(atTemp, tempC), slope))
                << "die " << die.seed() << " L2 " << b;
        }
    });
}

/**
 * Worst |T - min(Φ(T), 150)| of a settled condition, where Φ is a
 * fresh thermal solve of the block powers recomputed at the reported
 * temperatures; also checks that the reported powers are those.
 */
double
settleResidual(const Die &die, const ChipEvaluator &ev,
               const std::vector<CoreWork> &work,
               const std::vector<int> &levels, const ChipCondition &cond)
{
    const std::size_t n = die.numCores();
    std::vector<double> corePower(n, 0.0);
    for (std::size_t c = 0; c < n; ++c) {
        if (work[c].app == nullptr)
            continue;
        const double v = die.voltage(static_cast<std::size_t>(levels[c]));
        corePower[c] = ev.dynamicPower(work[c], v, cond.coreFreqHz[c]) +
            die.leakagePower(c, v, cond.coreTempC[c]);
        EXPECT_TRUE(relClose(corePower[c], cond.corePowerW[c]))
            << "core " << c;
    }
    std::vector<double> l2Power(cond.l2TempC.size());
    double l2Leak = 0.0;
    for (std::size_t b = 0; b < l2Power.size(); ++b) {
        l2Power[b] = die.l2LeakagePower(b, 1.0, cond.l2TempC[b]);
        l2Leak += l2Power[b];
    }
    const double l2DynShare =
        (cond.l2PowerW - l2Leak) / static_cast<double>(l2Power.size());
    for (double &p : l2Power)
        p += l2DynShare;

    const ThermalResult phi = die.thermalModel().solve(corePower, l2Power);
    double worst = 0.0;
    for (std::size_t c = 0; c < n; ++c)
        worst = std::max(worst, std::abs(cond.coreTempC[c] -
                                         std::min(phi.coreTempC[c], 150.0)));
    for (std::size_t b = 0; b < l2Power.size(); ++b)
        worst = std::max(worst, std::abs(cond.l2TempC[b] -
                                         std::min(phi.l2TempC[b], 150.0)));
    EXPECT_NEAR(cond.spreaderC, phi.spreaderC, 1e-9);
    EXPECT_NEAR(cond.sinkC, phi.sinkC, 1e-9);
    return worst;
}

TEST(SettleContract, ResidualWithinTolerance)
{
    // 40 seeds x 30 random jumps, alternately warm- and cold-seeded.
    // Every fourth die sits in a 105 C case, where the top levels run
    // away and the junction clamp engages.
    double worst = 0.0;
    std::size_t settles = 0;
    std::size_t clamped = 0;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        DieParams params = contractParams(0.12, 0.0);
        if (seed % 4 == 0)
            params.thermal.ambientC = 105.0;
        const Die die(params, seed);
        const ChipEvaluator ev(die);
        Rng rng(seed + 0x5E77);
        ChipCondition previous;
        for (int jump = 0; jump < 30; ++jump) {
            const auto work = randomWork(die, rng, 0.2);
            std::vector<int> levels(die.numCores());
            for (int &l : levels)
                l = static_cast<int>(rng.below(die.numLevels()));
            const double freqCapHz = jump % 5 == 4 ? die.uniformFreq() : 0.0;
            const ChipCondition cond = ev.evaluate(
                work, levels, freqCapHz, jump % 2 ? &previous : nullptr);
            worst = std::max(worst,
                             settleResidual(die, ev, work, levels, cond));
            clamped += *std::max_element(cond.coreTempC.begin(),
                                         cond.coreTempC.end()) > 149.999;
            ++settles;
            previous = cond;
        }
    }
    EXPECT_LE(worst, 0.01);
    EXPECT_GT(clamped, settles / 20) << "too few runaway points";
}

/** Mean settle rounds per settle over a dvfs_linopt-style sweep. */
double
meanRoundsPerSettle(bool warmStart)
{
    metrics::Counter &calls =
        metrics::Registry::global().counter("chip.settle.calls");
    metrics::Counter &rounds =
        metrics::Registry::global().counter("chip.settle.rounds");
    const std::uint64_t calls0 = calls.value();
    const std::uint64_t rounds0 = rounds.value();
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const Die die(contractParams(0.12, 0.0), seed);
        Rng rng(seed);
        const auto threads = randomWorkload(20, rng);
        for (const PmKind pm : {PmKind::LinOpt, PmKind::FoxtonStar}) {
            SystemConfig config;
            config.sched = SchedAlgo::VarFAppIPC;
            config.pm = pm;
            config.ptargetW = 75.0;
            config.durationMs = 300.0;
            config.seed = seed;
            config.warmStartThermal = warmStart;
            (void)SystemSimulator(die, threads, config).run();
        }
    }
    const std::uint64_t settled = calls.value() - calls0;
    EXPECT_GT(settled, 0u);
    return static_cast<double>(rounds.value() - rounds0) /
        static_cast<double>(std::max<std::uint64_t>(settled, 1));
}

TEST(SettleContract, MeanRoundsPerSettle)
{
    // Power evaluations per settle are exact for a fixed seed, so they
    // pin the settle's cost without wall-clock noise.
    EXPECT_LE(meanRoundsPerSettle(true), 2.5);
    EXPECT_LE(meanRoundsPerSettle(false), 4.0);
}

TEST(LeakageTable, MatchesSweep)
{
    constexpr double kTableTol = 1e-13;
    forEachContractDie([](const Die &die, Rng &rng) {
        const LeakageModel &model = die.leakageModel();
        const double sigmaRandom = die.variationMap().vthSigmaRandom();
        for (std::size_t c = 0; c < die.numCores(); ++c) {
            const auto samples = model.sampleCoreVth(
                die.variationMap(), die.floorplan(), c);
            const auto sweep = [&](double tempC) {
                return model.coreKernel(samples, sigmaRandom, tempC,
                                        die.vthBias(c));
            };
            // The range ends, a grid across it and a random point.
            std::vector<double> inside = {CoreLeakageTable::kMinC,
                                          CoreLeakageTable::kMaxC,
                                          rng.uniform(-40.0, 200.0)};
            for (double t = -37.5; t < 200.0; t += 7.5)
                inside.push_back(t);
            for (const double tempC : inside) {
                const CoreLeakageKernel want = sweep(tempC);
                const CoreLeakageKernel got = die.leakageKernel(c, tempC);
                EXPECT_TRUE(relClose(want.scale, got.scale, kTableTol))
                    << "die " << die.seed() << " core " << c << " T " << tempC;
                EXPECT_TRUE(relClose(want.dScale, got.dScale, kTableTol))
                    << "die " << die.seed() << " core " << c << " T " << tempC;
                EXPECT_EQ(want.invNvt, got.invNvt);
                EXPECT_EQ(want.tempK, got.tempK);
            }
            for (const double tempC : {-60.0, -40.001, 200.001, 250.0}) {
                const CoreLeakageKernel want = sweep(tempC);
                const CoreLeakageKernel got = die.leakageKernel(c, tempC);
                EXPECT_EQ(want.scale, got.scale) << "T " << tempC;
                EXPECT_EQ(want.dScale, got.dScale) << "T " << tempC;
                EXPECT_EQ(want.invNvt, got.invNvt) << "T " << tempC;
                EXPECT_EQ(want.tempK, got.tempK) << "T " << tempC;
            }
        }
    });
}

TEST(LeakageTable, SettlesAndSnapshotsNeverSweep)
{
    // SettleContract's jumps, warm and cold, at 45 C and 105 C
    // ambient, each followed by a sensor snapshot: no kernel may fall
    // back to the exp sweep.
    metrics::Counter &sweeps =
        metrics::Registry::global().counter("power.leak_kernel.sweeps");
    const std::uint64_t before = sweeps.value();
    std::size_t clamped = 0;
    for (const double ambientC : {45.0, 105.0}) {
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
            DieParams params = contractParams(0.12, seed % 2 ? 0.5 : 0.0);
            params.thermal.ambientC = ambientC;
            const Die die(params, seed);
            const ChipEvaluator ev(die);
            Rng rng(seed + 0x5E77);
            ChipCondition previous;
            for (int jump = 0; jump < 30; ++jump) {
                const auto work = randomWork(die, rng, 0.2);
                std::vector<int> levels(die.numCores());
                for (int &l : levels)
                    l = static_cast<int>(rng.below(die.numLevels()));
                const ChipCondition cond = ev.evaluate(
                    work, levels, 0.0, jump % 2 ? &previous : nullptr);
                (void)buildSnapshot(ev, work, cond, 1e9, 1e9);
                clamped += *std::max_element(cond.coreTempC.begin(),
                                             cond.coreTempC.end()) > 149.999;
                previous = cond;
            }
        }
    }
    EXPECT_EQ(sweeps.value() - before, 0u);
    EXPECT_GT(clamped, 0u) << "the jumps must reach the junction clamp";

    // The counter does count: a kernel past the range is one sweep.
    const Die die(contractParams(0.12, 0.0), 1);
    (void)die.leakageKernel(0, CoreLeakageTable::kMaxC + 1.0);
    EXPECT_EQ(sweeps.value() - before, 1u);
}

} // namespace
} // namespace varsched
