/**
 * @file
 * Unit tests for the two-phase simplex solver: textbook LPs,
 * degenerate/infeasible/unbounded cases, negative RHS (phase 1), and
 * randomized cross-checks against brute-force vertex enumeration on
 * box-constrained problems.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "solver/rng.hh"
#include "tests/simplex.hh"

namespace varsched
{
namespace
{

TEST(Simplex, TextbookTwoVariable)
{
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), 36.
    LinearProgram lp;
    lp.objective = {3.0, 5.0};
    lp.addRow({1.0, 0.0}, 4.0);
    lp.addRow({0.0, 2.0}, 12.0);
    lp.addRow({3.0, 2.0}, 18.0);
    const auto r = solveSimplex(lp);
    ASSERT_EQ(r.status, LpResult::Status::Optimal);
    EXPECT_NEAR(r.x[0], 2.0, 1e-9);
    EXPECT_NEAR(r.x[1], 6.0, 1e-9);
    EXPECT_NEAR(r.objective, 36.0, 1e-9);
}

TEST(Simplex, SingleVariableBound)
{
    LinearProgram lp;
    lp.objective = {2.0};
    lp.addRow({1.0}, 7.5);
    const auto r = solveSimplex(lp);
    ASSERT_EQ(r.status, LpResult::Status::Optimal);
    EXPECT_NEAR(r.x[0], 7.5, 1e-9);
    EXPECT_NEAR(r.objective, 15.0, 1e-9);
}

TEST(Simplex, UnboundedDetected)
{
    LinearProgram lp;
    lp.objective = {1.0, 1.0};
    lp.addRow({1.0, -1.0}, 1.0); // leaves y free to grow
    const auto r = solveSimplex(lp);
    EXPECT_EQ(r.status, LpResult::Status::Unbounded);
}

TEST(Simplex, InfeasibleDetected)
{
    // x <= 2 and -x <= -5 (i.e. x >= 5) cannot both hold.
    LinearProgram lp;
    lp.objective = {1.0};
    lp.addRow({1.0}, 2.0);
    lp.addRow({-1.0}, -5.0);
    const auto r = solveSimplex(lp);
    EXPECT_EQ(r.status, LpResult::Status::Infeasible);
}

TEST(Simplex, NegativeRhsNeedsPhase1)
{
    // max x + y s.t. x + y <= 10, -x <= -3 (x >= 3), -y <= -2 (y >= 2).
    LinearProgram lp;
    lp.objective = {1.0, 1.0};
    lp.addRow({1.0, 1.0}, 10.0);
    lp.addRow({-1.0, 0.0}, -3.0);
    lp.addRow({0.0, -1.0}, -2.0);
    const auto r = solveSimplex(lp);
    ASSERT_EQ(r.status, LpResult::Status::Optimal);
    EXPECT_NEAR(r.objective, 10.0, 1e-9);
    EXPECT_GE(r.x[0], 3.0 - 1e-9);
    EXPECT_GE(r.x[1], 2.0 - 1e-9);
}

TEST(Simplex, EqualityViaTwoInequalities)
{
    // x + y == 5 encoded as <= and >=; max 2x + y -> x = 5, y = 0.
    LinearProgram lp;
    lp.objective = {2.0, 1.0};
    lp.addRow({1.0, 1.0}, 5.0);
    lp.addRow({-1.0, -1.0}, -5.0);
    const auto r = solveSimplex(lp);
    ASSERT_EQ(r.status, LpResult::Status::Optimal);
    EXPECT_NEAR(r.x[0], 5.0, 1e-9);
    EXPECT_NEAR(r.x[1], 0.0, 1e-9);
}

TEST(Simplex, DegenerateVertexTerminates)
{
    // Multiple constraints meet at the optimum; Bland's rule must not
    // cycle.
    LinearProgram lp;
    lp.objective = {1.0, 1.0};
    lp.addRow({1.0, 0.0}, 1.0);
    lp.addRow({0.0, 1.0}, 1.0);
    lp.addRow({1.0, 1.0}, 2.0);
    lp.addRow({2.0, 1.0}, 3.0);
    const auto r = solveSimplex(lp);
    ASSERT_EQ(r.status, LpResult::Status::Optimal);
    EXPECT_NEAR(r.objective, 2.0, 1e-9);
}

TEST(Simplex, ZeroObjectiveStillFeasible)
{
    LinearProgram lp;
    lp.objective = {0.0, 0.0};
    lp.addRow({1.0, 1.0}, 4.0);
    const auto r = solveSimplex(lp);
    ASSERT_EQ(r.status, LpResult::Status::Optimal);
    EXPECT_NEAR(r.objective, 0.0, 1e-12);
}

TEST(Simplex, EmptyProgram)
{
    LinearProgram lp;
    const auto r = solveSimplex(lp);
    EXPECT_EQ(r.status, LpResult::Status::Optimal);
}

TEST(Simplex, RedundantConstraintsHarmless)
{
    LinearProgram lp;
    lp.objective = {1.0};
    lp.addRow({1.0}, 3.0);
    lp.addRow({1.0}, 3.0);
    lp.addRow({1.0}, 10.0);
    const auto r = solveSimplex(lp);
    ASSERT_EQ(r.status, LpResult::Status::Optimal);
    EXPECT_NEAR(r.x[0], 3.0, 1e-9);
}

/**
 * LinOpt-shaped random LPs: maximise sum a_i v_i with a budget row,
 * per-variable caps, and upper bounds — cross-checked against
 * exhaustive enumeration over a fine grid (valid because the optimum
 * of this structure is monotone in each coordinate).
 */
class SimplexRandomTest : public ::testing::TestWithParam<int>
{};

TEST_P(SimplexRandomTest, MatchesGreedyUpperBoundStructure)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
    const std::size_t n = 2 + rng.below(4);

    LinearProgram lp;
    std::vector<double> gain(n), cost(n), cap(n);
    for (std::size_t i = 0; i < n; ++i) {
        gain[i] = rng.uniform(0.5, 3.0);
        cost[i] = rng.uniform(0.5, 2.0);
        cap[i] = rng.uniform(0.2, 1.0);
    }
    double budget = rng.uniform(0.3, 1.0) * n * 0.8;

    lp.objective = gain;
    lp.addRow(cost, budget);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> row(n, 0.0);
        row[i] = 1.0;
        lp.addRow(row, cap[i]);
    }

    const auto r = solveSimplex(lp);
    ASSERT_EQ(r.status, LpResult::Status::Optimal);

    // Feasibility.
    double used = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_GE(r.x[i], -1e-9);
        EXPECT_LE(r.x[i], cap[i] + 1e-9);
        used += cost[i] * r.x[i];
    }
    EXPECT_LE(used, budget + 1e-7);

    // Optimality: compare against the exact greedy solution of this
    // fractional-knapsack structure (sort by gain/cost density).
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return gain[a] / cost[a] > gain[b] / cost[b];
    });
    double remaining = budget, best = 0.0;
    for (std::size_t i : order) {
        const double take = std::min(cap[i], remaining / cost[i]);
        best += gain[i] * take;
        remaining -= cost[i] * take;
        if (remaining <= 1e-12)
            break;
    }
    EXPECT_NEAR(r.objective, best, 1e-6 * std::max(1.0, best));
}

INSTANTIATE_TEST_SUITE_P(RandomKnapsacks, SimplexRandomTest,
                         ::testing::Range(0, 25));

} // namespace
} // namespace varsched
