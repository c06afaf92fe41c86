/**
 * @file
 * Unit tests for dense matrix helpers: Cholesky, triangular multiply,
 * least-squares line fit, and the CG solver.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "solver/matrix.hh"
#include "tests/cg_reference.hh"
#include "solver/rng.hh"

namespace varsched
{
namespace
{

TEST(Matrix, IndexingIsRowMajor)
{
    Matrix m(2, 3);
    m(0, 0) = 1.0;
    m(1, 2) = 6.0;
    EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
    EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
}

TEST(Cholesky, Identity)
{
    Matrix a(3, 3);
    for (int i = 0; i < 3; ++i)
        a(i, i) = 1.0;
    Matrix l;
    ASSERT_TRUE(cholesky(a, l));
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(l(i, i), 1.0, 1e-12);
}

TEST(Cholesky, Known2x2)
{
    // A = [[4, 2], [2, 3]] -> L = [[2, 0], [1, sqrt(2)]].
    Matrix a(2, 2);
    a(0, 0) = 4.0;
    a(0, 1) = 2.0;
    a(1, 0) = 2.0;
    a(1, 1) = 3.0;
    Matrix l;
    ASSERT_TRUE(cholesky(a, l));
    EXPECT_NEAR(l(0, 0), 2.0, 1e-12);
    EXPECT_NEAR(l(1, 0), 1.0, 1e-12);
    EXPECT_NEAR(l(1, 1), std::sqrt(2.0), 1e-12);
}

TEST(Cholesky, ReconstructsInput)
{
    // Random SPD matrix A = B*B^T + n*I.
    Rng rng(5);
    const std::size_t n = 8;
    Matrix b(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            b(i, j) = rng.normal();
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double s = i == j ? static_cast<double>(n) : 0.0;
            for (std::size_t k = 0; k < n; ++k)
                s += b(i, k) * b(j, k);
            a(i, j) = s;
        }
    }
    Matrix l;
    ASSERT_TRUE(cholesky(a, l));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double s = 0.0;
            for (std::size_t k = 0; k < n; ++k)
                s += l(i, k) * l(j, k);
            EXPECT_NEAR(s, a(i, j), 1e-8);
        }
    }
}

TEST(Cholesky, RejectsIndefinite)
{
    Matrix a(2, 2);
    a(0, 0) = 1.0;
    a(0, 1) = 0.0;
    a(1, 0) = 0.0;
    a(1, 1) = -5.0;
    Matrix l;
    EXPECT_FALSE(cholesky(a, l));
}

TEST(LowerMultiply, AppliesTriangle)
{
    Matrix l(2, 2);
    l(0, 0) = 2.0;
    l(1, 0) = 1.0;
    l(1, 1) = 3.0;
    const auto y = lowerMultiply(l, {1.0, 2.0});
    EXPECT_DOUBLE_EQ(y[0], 2.0);
    EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(FitLine, ExactLine)
{
    const auto [b, c] = fitLine({0.0, 1.0, 2.0}, {1.0, 3.0, 5.0});
    EXPECT_NEAR(b, 2.0, 1e-12);
    EXPECT_NEAR(c, 1.0, 1e-12);
}

TEST(FitLine, LeastSquaresOfNoisy)
{
    // Three points not on a line: fit minimises squared error.
    const auto [b, c] = fitLine({0.0, 1.0, 2.0}, {0.0, 1.0, 1.0});
    EXPECT_NEAR(b, 0.5, 1e-12);
    EXPECT_NEAR(c, 1.0 / 6.0, 1e-12);
}

TEST(FitLine, DegenerateInputs)
{
    auto r0 = fitLine({}, {});
    EXPECT_DOUBLE_EQ(r0.first, 0.0);
    auto r1 = fitLine({2.0}, {7.0});
    EXPECT_DOUBLE_EQ(r1.first, 0.0);
    EXPECT_DOUBLE_EQ(r1.second, 7.0);
    // All x identical: slope undefined -> 0, intercept = mean.
    auto r2 = fitLine({1.0, 1.0}, {2.0, 4.0});
    EXPECT_DOUBLE_EQ(r2.first, 0.0);
    EXPECT_DOUBLE_EQ(r2.second, 3.0);
}

TEST(SolveCG, SolvesSpdSystem)
{
    Matrix a(3, 3);
    // Diagonally dominant SPD.
    const double vals[3][3] = {{4, 1, 0}, {1, 5, 2}, {0, 2, 6}};
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            a(i, j) = vals[i][j];
    const std::vector<double> xTrue{1.0, -2.0, 3.0};
    std::vector<double> b(3, 0.0);
    for (int i = 0; i < 3; ++i)
        for (int j = 0; j < 3; ++j)
            b[i] += vals[i][j] * xTrue[j];
    const auto x = solveCG(a, b);
    for (int i = 0; i < 3; ++i)
        EXPECT_NEAR(x[i], xTrue[i], 1e-8);
}

TEST(SolveCG, ZeroRhsGivesZero)
{
    Matrix a(2, 2);
    a(0, 0) = 2.0;
    a(1, 1) = 2.0;
    const auto x = solveCG(a, {0.0, 0.0});
    EXPECT_DOUBLE_EQ(x[0], 0.0);
    EXPECT_DOUBLE_EQ(x[1], 0.0);
}

} // namespace
} // namespace varsched
