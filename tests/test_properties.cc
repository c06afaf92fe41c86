/**
 * @file
 * Property-based sweeps across seeds and parameters: invariants that
 * must hold for *every* die, workload, and operating point, checked
 * over parameterised ranges — plus reference-model cross-checks (FFT
 * vs naive DFT, cache vs a map-based LRU oracle).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <list>
#include <map>
#include <numbers>
#include <ostream>

#include "chip/sensors.hh"
#include "cmpsim/cache.hh"
#include "core/linopt.hh"
#include "core/pmalgo.hh"
#include "core/sched.hh"
#include "solver/fft.hh"
#include "tests/simplex.hh"

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

// ---------------------------------------------------------------
// FFT vs naive DFT reference.
// ---------------------------------------------------------------

class FftReferenceTest : public ::testing::TestWithParam<int>
{};

TEST_P(FftReferenceTest, MatchesNaiveDft)
{
    const std::size_t n = 32;
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 71 + 5);
    std::vector<std::complex<double>> x(n);
    for (auto &v : x)
        v = {rng.normal(), rng.normal()};

    std::vector<std::complex<double>> reference(n);
    for (std::size_t k = 0; k < n; ++k) {
        std::complex<double> sum{0.0, 0.0};
        for (std::size_t t = 0; t < n; ++t) {
            const double ang = -2.0 * std::numbers::pi *
                static_cast<double>(k * t) / static_cast<double>(n);
            sum += x[t] * std::complex<double>(std::cos(ang),
                                               std::sin(ang));
        }
        reference[k] = sum;
    }

    fft(x, false);
    for (std::size_t k = 0; k < n; ++k) {
        EXPECT_NEAR(x[k].real(), reference[k].real(), 1e-9);
        EXPECT_NEAR(x[k].imag(), reference[k].imag(), 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FftReferenceTest,
                         ::testing::Range(0, 6));

// ---------------------------------------------------------------
// Cache vs a map-based LRU oracle.
// ---------------------------------------------------------------

/** Straightforward (slow) LRU cache oracle. */
class LruOracle
{
  public:
    explicit LruOracle(const CacheConfig &config)
        : config_(config),
          numSets_(config.sizeBytes /
                   (config.lineBytes * config.associativity))
    {
        sets_.resize(numSets_);
    }

    bool
    access(std::uint64_t addr)
    {
        const std::uint64_t line = addr / config_.lineBytes;
        auto &set = sets_[line % numSets_];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (*it == line) {
                set.erase(it);
                set.push_front(line);
                return true;
            }
        }
        set.push_front(line);
        if (set.size() > config_.associativity)
            set.pop_back();
        return false;
    }

  private:
    CacheConfig config_;
    std::size_t numSets_;
    std::vector<std::list<std::uint64_t>> sets_;
};

class CacheOracleTest : public ::testing::TestWithParam<int>
{};

TEST_P(CacheOracleTest, AgreesWithOracleOnRandomStream)
{
    CacheConfig config{2048, 4, 64}; // small cache stresses eviction
    Cache cache(config);
    LruOracle oracle(config);
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
    for (int i = 0; i < 20000; ++i) {
        // 16 KB footprint over a 2 KB cache: plenty of misses.
        const std::uint64_t addr = rng.below(16384);
        EXPECT_EQ(cache.access(addr), oracle.access(addr))
            << "at access " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheOracleTest,
                         ::testing::Range(0, 5));

// ---------------------------------------------------------------
// Die invariants across manufacturing seeds.
// ---------------------------------------------------------------

class DieInvariantTest : public ::testing::TestWithParam<int>
{};

TEST_P(DieInvariantTest, TablesMonotoneAndFinite)
{
    const Die die(testParams(),
                  static_cast<std::uint64_t>(GetParam()) * 997 + 3);
    for (std::size_t c = 0; c < die.numCores(); ++c) {
        for (std::size_t l = 0; l < die.numLevels(); ++l) {
            EXPECT_TRUE(std::isfinite(die.freqAt(c, l)));
            EXPECT_GT(die.freqAt(c, l), 1.0e8);
            EXPECT_LT(die.freqAt(c, l), 6.0e9);
            EXPECT_GT(die.staticPowerAt(c, l), 0.0);
            EXPECT_LT(die.staticPowerAt(c, l), 50.0);
            if (l > 0) {
                EXPECT_GE(die.freqAt(c, l), die.freqAt(c, l - 1));
                EXPECT_GT(die.staticPowerAt(c, l),
                          die.staticPowerAt(c, l - 1));
            }
        }
        EXPECT_LE(die.uniformFreq(), die.maxFreq(c));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DieInvariantTest,
                         ::testing::Range(0, 8));

// ---------------------------------------------------------------
// Variation grows with sigma/mu (the Fig 5 property).
// ---------------------------------------------------------------

TEST(SigmaSweepProperty, FrequencySpreadGrowsWithSigma)
{
    double prevRatio = 1.0;
    for (double sigma : {0.03, 0.06, 0.09, 0.12}) {
        DieParams p = testParams();
        p.variation.vthSigmaOverMu = sigma;
        double sum = 0.0;
        const int dies = 6;
        Rng seeder(42);
        for (int d = 0; d < dies; ++d) {
            const Die die(p, seeder.next());
            double lo = 1e300, hi = 0.0;
            for (std::size_t c = 0; c < die.numCores(); ++c) {
                lo = std::min(lo, die.maxFreq(c));
                hi = std::max(hi, die.maxFreq(c));
            }
            sum += hi / lo;
        }
        const double ratio = sum / dies;
        EXPECT_GT(ratio, prevRatio) << "sigma " << sigma;
        prevRatio = ratio;
    }
}

// ---------------------------------------------------------------
// Power-manager feasibility across seeds and budgets.
// ---------------------------------------------------------------

struct PmCase
{
    int seed;
    double ptarget20;
};

/** gtest prints the parameter into the test's ctest name; without
 *  this it would print the raw bytes, padding included. */
void
PrintTo(const PmCase &c, std::ostream *os)
{
    *os << "seed" << c.seed << "_" << c.ptarget20 << "W";
}

class PmFeasibilityTest : public ::testing::TestWithParam<PmCase>
{};

TEST_P(PmFeasibilityTest, ManagersMeetReachableBudgets)
{
    const auto param = GetParam();
    const Die die(testParams(),
                  static_cast<std::uint64_t>(param.seed) * 31 + 11);
    ChipEvaluator evaluator(die);
    Rng rng(static_cast<std::uint64_t>(param.seed));
    const std::size_t threads = 12;
    auto apps = randomWorkload(threads, rng);
    auto asg = scheduleThreads(SchedAlgo::VarFAppIPC, die, apps, rng);
    std::vector<CoreWork> work(die.numCores());
    for (std::size_t t = 0; t < threads; ++t)
        work[asg[t]].app = apps[t];
    std::vector<int> top(die.numCores(),
                         static_cast<int>(die.maxLevel()));
    const auto cond = evaluator.evaluate(work, top);
    const double ptarget =
        param.ptarget20 * static_cast<double>(threads) / 20.0;
    const auto snap = buildSnapshot(
        evaluator, work, cond, ptarget,
        2.0 * ptarget / static_cast<double>(threads), nullptr);

    const std::vector<int> floor(snap.cores.size(), 0);
    const bool reachable = snap.feasible(floor);

    FoxtonStarManager fox;
    LinOptManager lin;
    const auto lf = fox.selectLevels(snap);
    const auto ll = lin.selectLevels(snap);
    if (reachable) {
        EXPECT_TRUE(snap.feasible(lf)) << "Foxton*";
        EXPECT_TRUE(snap.feasible(ll)) << "LinOpt";
        // LinOpt should never be much worse than the baseline.
        EXPECT_GE(snap.mipsAt(ll), snap.mipsAt(lf) * 0.97);
    } else {
        // Unreachable budget: both must bottom out.
        EXPECT_EQ(lf, floor);
        EXPECT_EQ(ll, floor);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndBudgets, PmFeasibilityTest,
    ::testing::Values(PmCase{1, 50.0}, PmCase{2, 50.0},
                      PmCase{3, 75.0}, PmCase{4, 75.0},
                      PmCase{5, 100.0}, PmCase{6, 100.0},
                      PmCase{7, 30.0}, PmCase{8, 150.0}));

// ---------------------------------------------------------------
// Snapshot monotonicity: raising any core's level raises its power
// and its (constant-IPC) throughput estimate.
// ---------------------------------------------------------------

TEST(SnapshotProperty, LevelMonotonicity)
{
    const Die die(testParams(), 404);
    ChipEvaluator evaluator(die);
    Rng rng(6);
    const std::size_t threads = 8;
    auto apps = randomWorkload(threads, rng);
    auto asg = scheduleThreads(SchedAlgo::Random, die, apps, rng);
    std::vector<CoreWork> work(die.numCores());
    for (std::size_t t = 0; t < threads; ++t)
        work[asg[t]].app = apps[t];
    std::vector<int> top(die.numCores(),
                         static_cast<int>(die.maxLevel()));
    const auto cond = evaluator.evaluate(work, top);
    const auto snap =
        buildSnapshot(evaluator, work, cond, 75.0, 10.0, nullptr);

    for (std::size_t i = 0; i < snap.cores.size(); ++i) {
        const auto power = snap.powerRow(i);
        const auto freq = snap.freqRow(i);
        const auto ipc = snap.ipcRow(i);
        for (std::size_t l = 1; l < snap.voltage.size(); ++l) {
            EXPECT_GT(power[l], power[l - 1]);
            EXPECT_GE(freq[l], freq[l - 1]);
            // IPC falls (weakly) with frequency for every app.
            EXPECT_LE(ipc[l], ipc[l - 1] + 1e-12);
        }
    }
}

// ---------------------------------------------------------------
// Simplex optimality spot-check: no random feasible point beats the
// reported optimum.
// ---------------------------------------------------------------

class SimplexOptimalityTest : public ::testing::TestWithParam<int>
{};

TEST_P(SimplexOptimalityTest, NoSampledPointBeatsOptimum)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 53 + 19);
    const std::size_t n = 3 + rng.below(3);
    LinearProgram lp;
    lp.objective.resize(n);
    for (auto &c : lp.objective)
        c = rng.uniform(-1.0, 3.0);
    const std::size_t rows = 2 + rng.below(3);
    for (std::size_t r = 0; r < rows; ++r) {
        std::vector<double> row(n);
        for (auto &v : row)
            v = rng.uniform(0.1, 2.0); // positive rows: bounded
        lp.addRow(row, rng.uniform(1.0, 5.0));
    }
    const auto result = solveSimplex(lp);
    ASSERT_EQ(result.status, LpResult::Status::Optimal);

    for (int trial = 0; trial < 300; ++trial) {
        std::vector<double> x(n);
        for (auto &v : x)
            v = rng.uniform(0.0, 3.0);
        bool feasible = true;
        for (std::size_t r = 0; r < rows && feasible; ++r) {
            double lhs = 0.0;
            for (std::size_t j = 0; j < n; ++j)
                lhs += lp.rows[r][j] * x[j];
            feasible = lhs <= lp.rhs[r];
        }
        if (!feasible)
            continue;
        double obj = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            obj += lp.objective[j] * x[j];
        EXPECT_LE(obj, result.objective + 1e-7);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexOptimalityTest,
                         ::testing::Range(0, 10));

// ---------------------------------------------------------------
// Physics monotonicity across operating points.
// ---------------------------------------------------------------

TEST(PhysicsProperty, ChipPowerMonotoneInLevels)
{
    const Die die(testParams(), 777);
    ChipEvaluator evaluator(die);
    std::vector<CoreWork> work(die.numCores());
    const auto &apps = specApplications();
    for (std::size_t c = 0; c < die.numCores(); ++c)
        work[c].app = &apps[c % apps.size()];

    double prev = 0.0;
    for (int level = 0; level <= static_cast<int>(die.maxLevel());
         ++level) {
        std::vector<int> levels(die.numCores(), level);
        const auto cond = evaluator.evaluate(work, levels);
        EXPECT_GT(cond.totalPowerW, prev);
        prev = cond.totalPowerW;
    }
}

TEST(PhysicsProperty, MoreThreadsMorePowerAndThroughput)
{
    const Die die(testParams(), 888);
    ChipEvaluator evaluator(die);
    Rng rng(4);
    double prevPower = 0.0, prevMips = 0.0;
    for (std::size_t threads : {2u, 6u, 12u, 20u}) {
        Rng wrng(9);
        auto apps = randomWorkload(threads, wrng);
        auto asg = scheduleThreads(SchedAlgo::VarF, die, apps, rng);
        std::vector<CoreWork> work(die.numCores());
        for (std::size_t t = 0; t < threads; ++t)
            work[asg[t]].app = apps[t];
        std::vector<int> top(die.numCores(),
                             static_cast<int>(die.maxLevel()));
        const auto cond = evaluator.evaluate(work, top);
        EXPECT_GT(cond.totalPowerW, prevPower);
        EXPECT_GT(cond.totalMips, prevMips);
        prevPower = cond.totalPowerW;
        prevMips = cond.totalMips;
    }
}

} // namespace
} // namespace varsched
