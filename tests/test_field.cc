/**
 * @file
 * Tests for the Gaussian random field generator: correlogram shape,
 * unit variance, spatial-correlation structure, agreement between the
 * Cholesky and circulant back-ends, and interpolation behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <vector>

#include "solver/rng.hh"
#include "solver/stats.hh"
#include "varius/correlation.hh"
#include "varius/field.hh"

namespace varsched
{
namespace
{

TEST(Correlation, SphericalEndpoints)
{
    EXPECT_DOUBLE_EQ(sphericalRho(0.0, 0.5), 1.0);
    EXPECT_DOUBLE_EQ(sphericalRho(0.5, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(sphericalRho(0.7, 0.5), 0.0);
}

TEST(Correlation, MonotoneDecreasing)
{
    double prev = 1.0;
    for (double r = 0.0; r <= 0.5; r += 0.01) {
        const double rho = sphericalRho(r, 0.5);
        EXPECT_LE(rho, prev + 1e-12);
        EXPECT_GE(rho, 0.0);
        prev = rho;
    }
}

TEST(Correlation, KnownMidpointValue)
{
    // rho(phi/2) = 1 - 1.5*0.5 + 0.5*0.125 = 0.3125.
    EXPECT_NEAR(sphericalRho(0.25, 0.5), 0.3125, 1e-12);
}

TEST(Correlation, SymmetricInDistance)
{
    EXPECT_DOUBLE_EQ(sphericalRho(-0.2, 0.5), sphericalRho(0.2, 0.5));
}

TEST(FieldSample, InterpolationMatchesGridPoints)
{
    // 2x2 grid with known corners.
    FieldSample f(2, {1.0, 2.0, 3.0, 4.0});
    EXPECT_NEAR(f.sample(0.0, 0.0), 1.0, 1e-12);
    EXPECT_NEAR(f.sample(1.0, 0.0), 2.0, 1e-12);
    EXPECT_NEAR(f.sample(0.0, 1.0), 3.0, 1e-12);
    EXPECT_NEAR(f.sample(1.0, 1.0), 4.0, 1e-12);
    // Centre is the average of the corners.
    EXPECT_NEAR(f.sample(0.5, 0.5), 2.5, 1e-12);
}

TEST(FieldSample, ClampsOutOfRangeQueries)
{
    FieldSample f(2, {1.0, 2.0, 3.0, 4.0});
    EXPECT_NEAR(f.sample(-1.0, -1.0), 1.0, 1e-12);
    EXPECT_NEAR(f.sample(2.0, 2.0), 4.0, 1e-12);
}

TEST(FieldSample, ClampsEachAxisIndependently)
{
    FieldSample f(2, {1.0, 2.0, 3.0, 4.0});
    // x past either edge with y mid-span: interpolate along y only.
    EXPECT_NEAR(f.sample(-0.5, 0.5), 2.0, 1e-12);
    EXPECT_NEAR(f.sample(1.5, 0.5), 3.0, 1e-12);
    // y past either edge with x mid-span: interpolate along x only.
    EXPECT_NEAR(f.sample(0.5, -0.5), 1.5, 1e-12);
    EXPECT_NEAR(f.sample(0.5, 1.5), 3.5, 1e-12);
}

TEST(FieldSample, BilinearWeightsOffCentre)
{
    FieldSample f(2, {1.0, 2.0, 3.0, 4.0});
    // Hand-evaluated bilinear blend at (0.25, 0.75):
    // (1-fx)(1-fy)v00 + fx(1-fy)v01 + (1-fx)fy v10 + fx fy v11
    const double expected = 0.75 * 0.25 * 1.0 + 0.25 * 0.25 * 2.0 +
        0.75 * 0.75 * 3.0 + 0.25 * 0.75 * 4.0;
    EXPECT_NEAR(f.sample(0.25, 0.75), expected, 1e-12);
}

TEST(FieldSample, RecoversEveryGridPointExactly)
{
    // n = 4: interior grid points must round-trip through sample()
    // exactly, not just the corners.
    const std::size_t n = 4;
    std::vector<double> values(n * n);
    for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = 0.25 * static_cast<double>(i) - 1.0;
    FieldSample f(n, values);
    const double step = 1.0 / static_cast<double>(n - 1);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            EXPECT_NEAR(f.sample(static_cast<double>(c) * step,
                                 static_cast<double>(r) * step),
                        f.at(r, c), 1e-12)
                << "grid point (" << r << ", " << c << ")";
}

TEST(Field, CholeskyUnitVarianceAcrossDies)
{
    // Pool many small dies: point variance should be ~1.
    Rng rng(101);
    Summary s;
    for (int die = 0; die < 40; ++die) {
        const auto f = generateField(12, 0.5, rng, FieldMethod::Cholesky);
        for (std::size_t i = 0; i < 12; ++i)
            for (std::size_t j = 0; j < 12; ++j)
                s.add(f.at(i, j));
    }
    EXPECT_NEAR(s.mean(), 0.0, 0.15);
    EXPECT_NEAR(s.stddev(), 1.0, 0.1);
}

TEST(Field, CirculantUnitVarianceAcrossDies)
{
    Rng rng(202);
    Summary s;
    for (int die = 0; die < 10; ++die) {
        const auto f =
            generateField(32, 0.5, rng, FieldMethod::CirculantFFT);
        for (std::size_t i = 0; i < 32; ++i)
            for (std::size_t j = 0; j < 32; ++j)
                s.add(f.at(i, j));
    }
    EXPECT_NEAR(s.mean(), 0.0, 0.2);
    EXPECT_NEAR(s.stddev(), 1.0, 0.12);
}

/**
 * Empirical spatial correlation at grid distance d, pooled across
 * dies, should track the spherical correlogram.
 */
double
empiricalCorrelation(FieldMethod method, std::size_t n, double phi,
                     std::size_t lag, int dies, std::uint64_t seed)
{
    Rng rng(seed);
    double sum00 = 0.0, sum0 = 0.0, suml = 0.0, sum0l = 0.0, sumll = 0.0;
    std::size_t count = 0;
    for (int die = 0; die < dies; ++die) {
        const auto f = generateField(n, phi, rng, method);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j + lag < n; ++j) {
                const double a = f.at(i, j);
                const double b = f.at(i, j + lag);
                sum0 += a;
                suml += b;
                sum00 += a * a;
                sumll += b * b;
                sum0l += a * b;
                ++count;
            }
        }
    }
    const double c = static_cast<double>(count);
    const double cov = sum0l / c - (sum0 / c) * (suml / c);
    const double v0 = sum00 / c - (sum0 / c) * (sum0 / c);
    const double vl = sumll / c - (suml / c) * (suml / c);
    return cov / std::sqrt(v0 * vl);
}

struct CorrCase
{
    FieldMethod method;
    std::size_t lag;
    std::size_t n = 24;
    double phi = 0.5;
    int dies = 60;
};

/** gtest prints the parameter into the test's ctest name; without
 *  this it would print the raw bytes, padding included. */
void
PrintTo(const CorrCase &c, std::ostream *os)
{
    *os << (c.method == FieldMethod::Cholesky ? "Cholesky" : "CirculantFFT")
        << "_lag" << c.lag;
}

class FieldCorrelationTest : public ::testing::TestWithParam<CorrCase>
{};

TEST_P(FieldCorrelationTest, MatchesSphericalCorrelogram)
{
    const auto param = GetParam();
    const double step = 1.0 / static_cast<double>(param.n - 1);
    const double expected =
        sphericalRho(static_cast<double>(param.lag) * step, param.phi);
    const double measured = empiricalCorrelation(
        param.method, param.n, param.phi, param.lag, param.dies, 4242);
    EXPECT_NEAR(measured, expected, 0.12);
}

INSTANTIATE_TEST_SUITE_P(
    LagsAndMethods, FieldCorrelationTest,
    ::testing::Values(CorrCase{FieldMethod::Cholesky, 1},
                      CorrCase{FieldMethod::Cholesky, 4},
                      CorrCase{FieldMethod::Cholesky, 10},
                      CorrCase{FieldMethod::CirculantFFT, 1},
                      CorrCase{FieldMethod::CirculantFFT, 4},
                      CorrCase{FieldMethod::CirculantFFT, 10},
                      CorrCase{FieldMethod::CirculantFFT, 20}));

// n = 32 at phi = 1.0 embeds on a 64-point torus, 2(n-1) = 62 rounded
// up to a power of two. Lag 31 is the wrap edge: on a 32-point torus it
// would alias onto lag 1. A die-wide range leaves few independent
// samples per die, hence the larger lot.
INSTANTIATE_TEST_SUITE_P(
    MinimalEmbedding, FieldCorrelationTest,
    ::testing::Values(CorrCase{FieldMethod::CirculantFFT, 1, 32, 1.0, 400},
                      CorrCase{FieldMethod::CirculantFFT, 10, 32, 1.0, 400},
                      CorrCase{FieldMethod::CirculantFFT, 31, 32, 1.0,
                               400}));

TEST(Field, CirculantEmbeddingIsMinimalAndExact)
{
    for (std::size_t n : {16, 24, 32, 48, 64, 128, 256}) {
        for (double phi : {0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5}) {
            SCOPED_TRACE(::testing::Message()
                         << "n=" << n << " phi=" << phi);
            const double step = 1.0 / static_cast<double>(n - 1);
            const auto need = std::max<std::size_t>(
                2 * (n - 1),
                2 * static_cast<std::size_t>(std::ceil(phi / step)));
            const std::size_t m = circulantEmbeddingSize(n, phi);
            EXPECT_EQ(m & (m - 1), 0u) << "m=" << m;
            EXPECT_GE(m, need);
            EXPECT_LT(m / 2, need);

            const std::vector<double> lambda =
                circulantEigenvalues(n, phi);
            ASSERT_EQ(lambda.size(), m * m);
            double sum = 0.0, lowest = lambda[0];
            for (double l : lambda) {
                sum += l;
                lowest = std::min(lowest, l);
            }
            EXPECT_GE(lowest, 0.0);
            EXPECT_NEAR(sum / static_cast<double>(m * m), 1.0, 1e-12);
        }
    }
}

TEST(Field, DeterministicGivenSeed)
{
    Rng rngA(55), rngB(55);
    const auto fa = generateField(16, 0.5, rngA);
    const auto fb = generateField(16, 0.5, rngB);
    for (std::size_t i = 0; i < 16; ++i)
        for (std::size_t j = 0; j < 16; ++j)
            EXPECT_DOUBLE_EQ(fa.at(i, j), fb.at(i, j));
}

TEST(Field, DifferentDiesDiffer)
{
    Rng rng(66);
    const auto fa = generateField(16, 0.5, rng);
    const auto fb = generateField(16, 0.5, rng);
    double diff = 0.0;
    for (std::size_t i = 0; i < 16; ++i)
        for (std::size_t j = 0; j < 16; ++j)
            diff += std::abs(fa.at(i, j) - fb.at(i, j));
    EXPECT_GT(diff, 1.0);
}

} // namespace
} // namespace varsched
