/**
 * @file
 * Agreement tests for the batched SoA numeric kernels against their
 * scalar references, plus the pair-field synthesis and the
 * die-population fan-out determinism contract.
 *
 * Contract under test (see MODELS.md section 14): every batched path
 * agrees with its element-by-element scalar reference within 1e-12
 * relative — bit-identical in the default build, since the batch
 * kernels only hoist loop-invariant subexpressions.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "chip/die.hh"
#include "power/leakage.hh"
#include "tests/leakage_oracle.hh"
#include "runtime/diepop.hh"
#include "solver/rng.hh"
#include "timing/alphapower.hh"
#include "timing/critpath.hh"
#include "varius/field.hh"
#include "varius/varmap.hh"

namespace varsched
{
namespace
{

/** |a - b| <= tol * max(|a|, |b|). */
::testing::AssertionResult
relClose(double a, double b, double tol = 1e-12)
{
    const double scale = std::max(std::abs(a), std::abs(b));
    if (std::abs(a - b) <= tol * scale)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << a << " vs " << b << " differ by "
        << std::abs(a - b) / (scale > 0.0 ? scale : 1.0)
        << " relative (tol " << tol << ")";
}

TEST(GateDelayBatch, MatchesScalarElementwise)
{
    Rng rng(301);
    const std::size_t n = 97; // odd: exercises any unroll tail
    std::vector<double> leff(n), vth(n), out(n);
    for (std::size_t i = 0; i < n; ++i) {
        leff[i] = 0.8 + 0.4 * rng.uniform();
        vth[i] = 0.20 + 0.10 * rng.uniform();
    }
    const DelayParams params;
    for (double v : {0.60, 0.85, 1.00}) {
        for (double tempC : {45.0, 60.0, 95.0}) {
            gateDelayBatch(leff.data(), vth.data(), n, v, tempC, params,
                           out.data());
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_TRUE(relClose(
                    out[i], gateDelay(leff[i], vth[i], v, tempC, params)))
                    << "i=" << i << " v=" << v << " T=" << tempC;
        }
    }
}

TEST(GateDelayBatch, CollapsedOverdriveStaysHuge)
{
    // V at/below Vth must produce the same "cannot clock" sentinel
    // behaviour as the scalar path.
    const DelayParams params;
    const double leff[2] = {1.0, 1.0};
    const double vth[2] = {0.70, 0.25};
    double out[2] = {0.0, 0.0};
    gateDelayBatch(leff, vth, 2, 0.65, 60.0, params, out);
    EXPECT_TRUE(relClose(out[0], gateDelay(1.0, 0.70, 0.65, 60.0, params)));
    EXPECT_TRUE(relClose(out[1], gateDelay(1.0, 0.25, 0.65, 60.0, params)));
    EXPECT_GT(out[0], out[1] * 50.0);
}

/**
 * Scalar reference for CoreTiming::maxDelay: per-path gateDelay()
 * calls over the population, scaled by the calibration of
 * buildCoreTiming()'s default parameters — the pre-SoA evaluation.
 */
double
maxDelayScalarRef(const CoreTiming &timing, const VariationMap &map,
                  double v, double tempC)
{
    const DelayParams delayParams;
    const CritPathParams cpParams;
    const double delayScale =
        1.0 / (cpParams.nominalFreqHz *
               nominalPathDelay(delayParams, cpParams,
                                map.params().vthMean,
                                map.params().leffMean));
    double worst = 0.0;
    for (std::size_t i = 0; i < timing.numPaths(); ++i) {
        const double d = gateDelay(timing.pathLeff()[i],
                                   timing.pathVth()[i], v, tempC,
                                   delayParams) *
            delayScale;
        worst = std::max(worst, d);
    }
    return worst;
}

TEST(CoreTiming, MaxDelayMatchesScalarRef)
{
    VariationParams vp;
    vp.gridSize = 32;
    Rng rng(302);
    const auto map = generateVariationMap(vp, rng);
    const Floorplan plan(4, 340.0);
    for (std::size_t core = 0; core < 4; ++core) {
        const auto timing = buildCoreTiming(map, plan, core, rng);
        for (double v : {0.60, 0.80, 1.00})
            for (double tempC : {50.0, 95.0})
                EXPECT_TRUE(relClose(timing.maxDelay(v, tempC),
                                     maxDelayScalarRef(timing, map, v, tempC)))
                    << "core=" << core << " v=" << v << " T=" << tempC;
    }
}

TEST(CoreTiming, MaxDelayMatchesScalarRefUnderVthShift)
{
    VariationParams vp;
    vp.gridSize = 32;
    Rng rng(303);
    const auto map = generateVariationMap(vp, rng);
    const Floorplan plan(4, 340.0);
    auto timing = buildCoreTiming(map, plan, 1, rng);
    timing.shiftVth(-0.03); // forward body bias
    EXPECT_TRUE(relClose(timing.maxDelay(0.85, 70.0),
                         maxDelayScalarRef(timing, map, 0.85, 70.0)));
}

TEST(LeakageBatch, CorePowerSampledMatchesScalarRef)
{
    LeakageModel model;
    Rng rng(304);
    std::vector<double> samples(36);
    for (double &s : samples)
        s = 0.25 + 0.05 * rng.normal();
    const double sigmaRandom = 0.018;
    for (double v : {0.60, 0.85, 1.00}) {
        for (double tempC : {45.0, 60.0, 95.0}) {
            for (double shift : {0.0, -0.02, 0.03}) {
                EXPECT_TRUE(relClose(
                    model.corePowerSampled(samples, sigmaRandom, v, tempC,
                                           shift),
                    static_cast<double>(oracle::corePower(
                        model.params(), samples, sigmaRandom, v, tempC,
                        shift))))
                    << "v=" << v << " T=" << tempC << " shift=" << shift;
            }
        }
    }
}

TEST(FieldPair, CholeskyPairMatchesSequentialDraws)
{
    // The Cholesky back-end pair is defined as two sequential
    // generateField() draws from the same stream — bit-identical.
    Rng rngPair(305), rngSeq(305);
    FieldSample a, b;
    generateFieldPair(16, 0.5, rngPair, FieldMethod::Cholesky, a, b);
    const auto sa = generateField(16, 0.5, rngSeq, FieldMethod::Cholesky);
    const auto sb = generateField(16, 0.5, rngSeq, FieldMethod::Cholesky);
    for (std::size_t i = 0; i < 16; ++i)
        for (std::size_t j = 0; j < 16; ++j) {
            EXPECT_DOUBLE_EQ(a.at(i, j), sa.at(i, j));
            EXPECT_DOUBLE_EQ(b.at(i, j), sb.at(i, j));
        }
}

TEST(FieldPair, CirculantPairIsDeterministicAndDistinct)
{
    Rng rngA(306), rngB(306);
    FieldSample a1, b1, a2, b2;
    generateFieldPair(32, 0.5, rngA, FieldMethod::CirculantFFT, a1, b1);
    generateFieldPair(32, 0.5, rngB, FieldMethod::CirculantFFT, a2, b2);
    double diffAB = 0.0;
    for (std::size_t i = 0; i < 32; ++i)
        for (std::size_t j = 0; j < 32; ++j) {
            EXPECT_DOUBLE_EQ(a1.at(i, j), a2.at(i, j));
            EXPECT_DOUBLE_EQ(b1.at(i, j), b2.at(i, j));
            diffAB += std::abs(a1.at(i, j) - b1.at(i, j));
        }
    // Re and Im planes are independent realisations, not copies.
    EXPECT_GT(diffAB, 1.0);
}

TEST(FieldPair, CirculantPlanesAreNearlyUncorrelated)
{
    // Dietrich-Newsam: the two planes of one synthesis are
    // independent. Pool point-wise products across dies; the
    // cross-correlation should be ~0.
    Rng rng(307);
    double sumAB = 0.0, sumA = 0.0, sumB = 0.0, sumAA = 0.0, sumBB = 0.0;
    std::size_t count = 0;
    for (int die = 0; die < 30; ++die) {
        FieldSample a, b;
        generateFieldPair(24, 0.5, rng, FieldMethod::CirculantFFT, a, b);
        for (std::size_t i = 0; i < 24; ++i)
            for (std::size_t j = 0; j < 24; ++j) {
                const double x = a.at(i, j), y = b.at(i, j);
                sumA += x;
                sumB += y;
                sumAA += x * x;
                sumBB += y * y;
                sumAB += x * y;
                ++count;
            }
    }
    const double c = static_cast<double>(count);
    const double cov = sumAB / c - (sumA / c) * (sumB / c);
    const double va = sumAA / c - (sumA / c) * (sumA / c);
    const double vb = sumBB / c - (sumB / c) * (sumB / c);
    EXPECT_NEAR(cov / std::sqrt(va * vb), 0.0, 0.1);
}

TEST(FieldSpectrumCache, ReusedAcrossDies)
{
    clearFieldSpectrumCache();
    EXPECT_EQ(fieldSpectrumCacheSize(), 0u);
    Rng rng(308);
    (void)generateField(32, 0.5, rng, FieldMethod::CirculantFFT);
    EXPECT_EQ(fieldSpectrumCacheSize(), 1u);
    (void)generateField(32, 0.5, rng, FieldMethod::CirculantFFT);
    EXPECT_EQ(fieldSpectrumCacheSize(), 1u); // same (n, phi) -> no growth
    (void)generateField(16, 0.5, rng, FieldMethod::CirculantFFT);
    EXPECT_EQ(fieldSpectrumCacheSize(), 2u);
    clearFieldSpectrumCache();
    EXPECT_EQ(fieldSpectrumCacheSize(), 0u);
}

TEST(DiePopulation, SeedsArePureFunctionOfLotSeed)
{
    const auto a = diePopulationSeeds(8, 777);
    const auto b = diePopulationSeeds(8, 777);
    EXPECT_EQ(a, b);
    // A longer lot extends, never re-deals, the shorter one.
    const auto longer = diePopulationSeeds(12, 777);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(longer[i], a[i]);
    // Different lots get different dies.
    const auto other = diePopulationSeeds(8, 778);
    EXPECT_NE(a, other);
}

TEST(DiePopulation, FanOutMatchesSerialBitIdentically)
{
    DieParams params;
    params.numCores = 4;
    params.variation.gridSize = 32;
    const auto seeds = diePopulationSeeds(6, 309);

    struct DieStat
    {
        double uniFreq;
        double leak;
        bool operator==(const DieStat &) const = default;
    };
    auto perDie = [](const Die &die, std::size_t) {
        double leak = 0.0;
        for (std::size_t c = 0; c < die.numCores(); ++c)
            leak += die.staticPowerAt(c, die.maxLevel());
        return DieStat{die.uniformFreq(), leak};
    };

    const auto serial = runDiePopulation(params, seeds, perDie, 1);
    const auto fanned = runDiePopulation(params, seeds, perDie, 3);
    ASSERT_EQ(serial.results.size(), fanned.results.size());
    EXPECT_TRUE(serial.results == fanned.results)
        << "die-population fan-out diverged from the serial loop";

    // A lot manufactured under two process settings that differ only
    // in Vth sigma, one setting after the other on the same seeds, at
    // any worker count gives the serial loop's results.
    std::vector<DieParams> settings(2, params);
    settings[0].variation.vthSigmaOverMu = 0.06;
    settings[1].variation.vthSigmaOverMu = 0.12;
    const auto lot = diePopulationSeeds(12, 0x107);
    std::vector<std::vector<DieStat>> expected;
    for (const DieParams &setting : settings)
        expected.push_back(
            runDiePopulation(setting, lot, perDie, 1).results);
    EXPECT_FALSE(expected[0] == expected[1]);
    for (const std::size_t workers : {1u, 2u, 7u}) {
        for (std::size_t k = 0; k < settings.size(); ++k) {
            const auto run =
                runDiePopulation(settings[k], lot, perDie, workers);
            EXPECT_TRUE(run.results == expected[k])
                << "setting " << k << " diverged at " << workers
                << " workers";
        }
    }
}

TEST(DiePopulation, EmptyLotIsANoOp)
{
    DieParams params;
    const std::vector<std::uint64_t> seeds;
    const auto run = runDiePopulation(
        params, seeds, [](const Die &, std::size_t) { return 1; });
    EXPECT_TRUE(run.results.empty());
}

} // namespace
} // namespace varsched
