/**
 * @file
 * Contract of the closed forms that replaced the simplex on the power
 * managers' decision path: LinOpt's ratio rule (solveRatioRule) and
 * LinOptMaxMin's water-filling (solveWaterFill), each against
 * solveSimplex on the LP built from the same LinOptFit
 * (tests/lp_oracle.hh).
 *
 *  - Real snapshots: 40 die seeds x threads {4, 8, 16, 20} x budgets
 *    {50, 75, 100} W at 20 threads (scaled to the thread count),
 *    VarF&AppIPC placement, sensor noise on. Same status, objective
 *    (and the max-min pace t*) within 1e-12 relative, and identical
 *    rounded levels.
 *  - The max-min optimum is not unique where the budget does not bind:
 *    t* is capped by a worker that reached the top of its range, and
 *    the spare budget may sit on any other worker. Water-filling leaves
 *    it unassigned (least budget). On this sweep (258 such snapshots of
 *    422 feasible) the simplex's vertex rounds to the same levels too,
 *    so levels are compared everywhere, and the non-unique cases are
 *    also checked for water-filling spending no more budget.
 *  - Synthetic fits for the cases real dies do not produce: a negative
 *    budget, a negative cap, b_i <= 0 and a_i <= 0, plus a random sweep
 *    over mixed signs. A core with a_i = 0 (LinOpt) or b_i = 0 is a
 *    tie the LP does not resolve, so there only status and objective
 *    are compared.
 *
 * The physics_contract ctest label reruns this suite.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "chip/die.hh"
#include "chip/sensors.hh"
#include "core/linopt.hh"
#include "core/parallel.hh"
#include "core/sched.hh"
#include "solver/rng.hh"
#include "tests/simplex.hh"
#include "tests/lp_oracle.hh"

namespace varsched
{
namespace
{

constexpr double kContractTol = 1e-12;
constexpr std::uint64_t kSeeds = 40;

::testing::AssertionResult
relClose(double want, double got, double scale = 0.0)
{
    const double s = std::max({std::abs(want), std::abs(got), scale});
    if (std::abs(want - got) <= kContractTol * s)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << got << " vs simplex " << want << ": "
        << std::abs(want - got) / s << " relative";
}

/** One real snapshot of the sweep and where it came from. */
struct RealCase
{
    std::uint64_t seed;
    std::size_t threads;
    double budget20; ///< Chip budget at 20 threads, W.
    ChipSnapshot snap;
};

/**
 * The sweep's snapshots, built once: what the tick loop hands a
 * manager at a DVFS boundary, with the chip settled at the top level.
 */
const std::vector<RealCase> &
realCases()
{
    static const std::vector<RealCase> cases = [] {
        std::vector<RealCase> out;
        for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
            const Die die(DieParams{}, 0xC10F + seed);
            ChipEvaluator evaluator(die);
            for (const std::size_t threads : {4u, 8u, 16u, 20u}) {
                Rng rng(seed * 131 + threads);
                const auto apps = randomWorkload(threads, rng);
                const auto asg = scheduleThreads(SchedAlgo::VarFAppIPC,
                                                 die, apps, rng);
                std::vector<CoreWork> work(die.numCores());
                for (std::size_t t = 0; t < threads; ++t)
                    work[asg[t]].app = apps[t];
                const std::vector<int> top(
                    die.numCores(), static_cast<int>(die.maxLevel()));
                const ChipCondition cond = evaluator.evaluate(work, top);
                for (const double budget20 : {50.0, 75.0, 100.0}) {
                    const double ptarget = budget20 *
                        static_cast<double>(threads) / 20.0;
                    Rng noise(seed * 7919 + threads * 13 +
                              static_cast<std::uint64_t>(budget20));
                    out.push_back(RealCase{
                        seed, threads, budget20,
                        buildSnapshot(evaluator, work, cond, ptarget,
                                      2.0 * ptarget /
                                          static_cast<double>(threads),
                                      &noise)});
                }
            }
        }
        return out;
    }();
    return cases;
}

double
objectiveAt(const LinOptFit &fit, const std::vector<double> &x)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        sum += fit.a[i] * x[i];
    return sum;
}

double
budgetUse(const LinOptFit &fit, const std::vector<double> &x)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        sum += fit.b[i] * x[i];
    return sum;
}

std::vector<int>
roundedLevels(const ChipSnapshot &snap, const std::vector<double> &x)
{
    std::vector<int> levels(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        levels[i] = roundDownLevel(snap.voltage, snap.voltage.front() + x[i]);
    return levels;
}

TEST(LinOptClosedFormContract, RatioRuleMatchesSimplexOnRealSnapshots)
{
    struct Variant
    {
        PmObjective objective;
        int points;
    };
    std::size_t feasible = 0, infeasible = 0;
    LinOptFit fit;
    std::vector<double> x;
    LpOrder order;
    for (const RealCase &c : realCases()) {
        for (const Variant v : {Variant{PmObjective::Throughput, 3},
                                Variant{PmObjective::Weighted, 3},
                                Variant{PmObjective::Throughput, 2}}) {
            SCOPED_TRACE(::testing::Message()
                         << "seed " << c.seed << ", " << c.threads
                         << " threads, " << c.budget20 << " W, "
                         << (v.objective == PmObjective::Weighted
                                 ? "weighted"
                                 : "throughput")
                         << ", " << v.points << " points");
            fitLinOpt(c.snap, v.points, v.objective, fit);
            const bool ok = solveRatioRule(fit, x, order);
            const LpResult ref = solveSimplex(linOptProgram(fit));
            ASSERT_EQ(ok, ref.status == LpResult::Status::Optimal);
            ASSERT_NE(ref.status, LpResult::Status::Unbounded);

            // The manager decides from exactly this solution.
            LinOptConfig config;
            config.objective = v.objective;
            config.powerSamplePoints = v.points;
            LinOptManager pm(config);
            pm.selectLevels(c.snap);
            EXPECT_EQ(pm.lastDiag().feasible,
                      ref.status == LpResult::Status::Optimal);
            if (!ok) {
                ++infeasible;
                continue;
            }
            ++feasible;
            EXPECT_TRUE(relClose(ref.objective, objectiveAt(fit, x)));
            EXPECT_EQ(roundedLevels(c.snap, x),
                      roundedLevels(c.snap, ref.x));
            for (std::size_t i = 0; i < x.size(); ++i)
                EXPECT_EQ(pm.lastDiag().continuousV[i],
                          c.snap.voltage.front() + x[i]);
        }
    }
    // The sweep reaches both outcomes.
    EXPECT_GT(feasible, 0u);
    EXPECT_GT(infeasible, 0u);
}

TEST(LinOptClosedFormContract, WaterFillMatchesSimplexOnRealSnapshots)
{
    std::size_t binding = 0, spare = 0, infeasible = 0;
    LinOptFit fit;
    std::vector<double> x;
    LpOrder order;
    for (const RealCase &c : realCases()) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << c.seed << ", " << c.threads
                     << " threads, " << c.budget20 << " W");
        fitLinOpt(c.snap, 3, PmObjective::Throughput, fit);
        double pace = 0.0;
        const bool ok = solveWaterFill(fit, x, pace, order);
        const LpResult ref = solveSimplex(maxMinProgram(fit));
        ASSERT_EQ(ok, ref.status == LpResult::Status::Optimal);
        ASSERT_NE(ref.status, LpResult::Status::Unbounded);
        if (!ok) {
            ++infeasible;
            continue;
        }
        const std::size_t n = x.size();
        EXPECT_TRUE(relClose(ref.x[n], pace));
        EXPECT_TRUE(relClose(ref.objective, pace));
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_GE(fit.a[i] * x[i] + fit.d[i],
                      pace * (1.0 - kContractTol));

        const std::vector<double> refX(ref.x.begin(), ref.x.end() - 1);
        EXPECT_EQ(roundedLevels(c.snap, x), roundedLevels(c.snap, refX));
        const double use = budgetUse(fit, x);
        if (fit.budget - use <= kContractTol * std::abs(fit.budget)) {
            ++binding; // the optimum is unique
        } else {
            // t* is capped by a worker's range; the spare budget is
            // the LP's to place anywhere. Water-filling spends least.
            ++spare;
            EXPECT_LE(use, budgetUse(fit, refX) +
                               kContractTol * std::abs(fit.budget));
        }
    }
    EXPECT_GT(binding, 0u);
    EXPECT_GT(spare, 0u);
    EXPECT_GT(infeasible, 0u);
}

/** A fit with every core's rows given explicitly and d_i = 1. */
LinOptFit
syntheticFit(std::vector<double> a, std::vector<double> b,
             std::vector<double> cap, double budget, double span = 0.3)
{
    LinOptFit fit;
    fit.d.assign(a.size(), 1.0);
    fit.a = std::move(a);
    fit.b = std::move(b);
    fit.cap = std::move(cap);
    fit.budget = budget;
    fit.span = span;
    return fit;
}

/**
 * Status, objective and (when @p sameX) every x_i of the ratio rule
 * against the simplex.
 */
void
expectRatioRuleMatches(const LinOptFit &fit, bool sameX = true)
{
    std::vector<double> x;
    LpOrder order;
    const bool ok = solveRatioRule(fit, x, order);
    const LpResult ref = solveSimplex(linOptProgram(fit));
    ASSERT_EQ(ok, ref.status == LpResult::Status::Optimal);
    if (!ok)
        return;
    double scale = 0.0;
    for (double a : fit.a)
        scale += std::abs(a) * fit.span;
    EXPECT_TRUE(relClose(ref.objective, objectiveAt(fit, x), scale));
    if (!sameX)
        return;
    for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(x[i], ref.x[i], 1e-12) << "core " << i;
}

/** Status and t* of water-filling against the simplex. */
void
expectWaterFillMatches(const LinOptFit &fit)
{
    std::vector<double> x;
    LpOrder order;
    double pace = 0.0;
    const bool ok = solveWaterFill(fit, x, pace, order);
    const LpResult ref = solveSimplex(maxMinProgram(fit));
    ASSERT_EQ(ok, ref.status == LpResult::Status::Optimal);
    if (!ok)
        return;
    double scale = 0.0;
    for (std::size_t i = 0; i < fit.a.size(); ++i)
        scale = std::max(scale, std::abs(fit.a[i]) * fit.span +
                                    std::abs(fit.d[i]));
    EXPECT_TRUE(relClose(ref.x.back(), pace, scale));
}

TEST(LinOptClosedFormContract, NegativeBudgetIsInfeasible)
{
    const auto fit = syntheticFit({3.0, 2.0}, {4.0, 5.0}, {2.0, 2.0}, -0.1);
    std::vector<double> x;
    LpOrder order;
    double pace = 0.0;
    EXPECT_FALSE(solveRatioRule(fit, x, order));
    EXPECT_FALSE(solveWaterFill(fit, x, pace, order));
    expectRatioRuleMatches(fit);
    expectWaterFillMatches(fit);
}

TEST(LinOptClosedFormContract, NegativeCapIsInfeasible)
{
    const auto fit =
        syntheticFit({3.0, 2.0}, {4.0, 5.0}, {2.0, -0.01}, 10.0);
    std::vector<double> x;
    LpOrder order;
    double pace = 0.0;
    EXPECT_FALSE(solveRatioRule(fit, x, order));
    EXPECT_FALSE(solveWaterFill(fit, x, pace, order));
    expectRatioRuleMatches(fit);
    expectWaterFillMatches(fit);
}

TEST(LinOptClosedFormContract, NonPositivePowerSlopes)
{
    // b_1 < 0: the cap row bounds x_1 from below (here x_1 >= 0.1)
    // and raising x_1 frees budget, so it runs at the top. b_2 = 0
    // costs nothing: top as well. Core 0 takes what is left.
    const auto fit = syntheticFit({3.0, 2.0, 1.0}, {4.0, -2.0, 0.0},
                                  {2.0, -0.2, 0.5}, 0.5);
    std::vector<double> x;
    LpOrder order;
    ASSERT_TRUE(solveRatioRule(fit, x, order));
    EXPECT_DOUBLE_EQ(x[1], 0.3);
    EXPECT_DOUBLE_EQ(x[2], 0.3);
    EXPECT_NEAR(x[0], (0.5 + 2.0 * 0.3) / 4.0, 1e-15);
    expectRatioRuleMatches(fit);
    expectWaterFillMatches(fit);

    // A lower bound above the span, or b_i = 0 with a negative cap,
    // leaves no x_i at all.
    expectRatioRuleMatches(
        syntheticFit({3.0, 2.0}, {4.0, -1.0}, {2.0, -0.5}, 1.0));
    expectRatioRuleMatches(
        syntheticFit({3.0, 2.0}, {4.0, 0.0}, {2.0, -0.5}, 1.0));
    expectWaterFillMatches(
        syntheticFit({3.0, 2.0}, {4.0, -1.0}, {2.0, -0.5}, 1.0));
}

TEST(LinOptClosedFormContract, NonPositiveObjectiveSlopes)
{
    // a_1 < 0 stays at Vlow. a_2 = 0 is the tie: any x_2 the budget
    // allows is optimal; the ratio rule leaves it at Vlow.
    const auto fit = syntheticFit({3.0, -1.0, 0.0}, {4.0, 2.0, 1.0},
                                  {2.0, 2.0, 2.0}, 0.6);
    std::vector<double> x;
    LpOrder order;
    ASSERT_TRUE(solveRatioRule(fit, x, order));
    EXPECT_DOUBLE_EQ(x[1], 0.0);
    EXPECT_DOUBLE_EQ(x[2], 0.0);
    expectRatioRuleMatches(fit, /*sameX=*/false);
    // a_i < 0 and b_i < 0 trade the other way round: lowering x_i
    // buys objective and costs budget.
    expectRatioRuleMatches(syntheticFit({3.0, -1.0}, {4.0, -2.0},
                                        {2.0, 0.5}, 0.2));
    expectWaterFillMatches(fit);
    expectWaterFillMatches(syntheticFit({3.0, -1.0}, {4.0, -2.0},
                                        {2.0, 0.5}, 0.2));
}

TEST(LinOptClosedFormContract, RandomMixedSignFitsMatchSimplex)
{
    Rng rng(0xC105ED);
    for (int trial = 0; trial < 2000; ++trial) {
        SCOPED_TRACE(trial);
        const std::size_t n = 1 + rng.below(8);
        std::vector<double> a(n), b(n), cap(n);
        for (std::size_t i = 0; i < n; ++i) {
            // Mostly the real sign pattern, sometimes zero or negative.
            const double u = rng.uniform();
            a[i] = u < 0.1 ? 0.0 : u < 0.25 ? -rng.uniform(0.5, 3.0)
                                            : rng.uniform(0.5, 3.0);
            const double w = rng.uniform();
            b[i] = w < 0.1 ? 0.0 : w < 0.25 ? -rng.uniform(0.5, 5.0)
                                            : rng.uniform(0.5, 5.0);
            cap[i] = rng.uniform(-0.3, 2.0);
        }
        LinOptFit fit = syntheticFit(a, b, cap,
                                     rng.uniform(-0.2, 1.0) *
                                         static_cast<double>(n));
        for (double &d : fit.d)
            d = rng.uniform(-0.2, 2.0);
        bool tie = false;
        for (std::size_t i = 0; i < n; ++i)
            tie = tie || a[i] == 0.0 || b[i] == 0.0;
        expectRatioRuleMatches(fit, !tie);
        expectWaterFillMatches(fit);
    }
}

} // namespace
} // namespace varsched
