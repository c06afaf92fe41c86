/**
 * @file
 * parallelFor and env-knob unit tests and the batch-runner
 * determinism suite: the parallel runBatch() must produce
 * bit-identical metrics at every worker count, the cached thermal factorisation must agree with the
 * iterative CG path it replaced, and the varius factor cache must not
 * change the generated fields.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/system.hh"
#include "runtime/env.hh"
#include "runtime/metrics.hh"
#include "runtime/threadpool.hh"
#include "solver/matrix.hh"
#include "tests/cg_reference.hh"
#include "thermal/thermal.hh"
#include "varius/field.hh"

namespace varsched
{
namespace
{

// ---------------------------------------------------------------------
// parallelFor.

/** A cheap pure function of the index for bit-identity checks. */
double
indexProbe(std::size_t i)
{
    const double x = 0.001 * static_cast<double>(i) - 1.7;
    return x * x * 1.000000001 + std::sin(x);
}

TEST(ParallelFor, EachIndexRunsExactlyOnce)
{
    // An atomic counter per index catches both skips and double runs;
    // the thread ids show that at most min(workers, count) threads
    // (at least one) ran bodies, none of them the caller.
    for (const std::size_t workers : {0, 1, 2, 7}) {
        for (const std::size_t count : {0, 1, 7, 257, 4097}) {
            std::vector<std::atomic<int>> hits(count);
            std::mutex idsMutex;
            std::set<std::thread::id> ids;
            parallelFor(workers, count, [&](std::size_t i) {
                ++hits[i];
                std::lock_guard<std::mutex> lock(idsMutex);
                ids.insert(std::this_thread::get_id());
            });
            for (std::size_t i = 0; i < count; ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << "workers=" << workers << " count=" << count
                    << " i=" << i;
            EXPECT_LE(ids.size(),
                      std::max<std::size_t>(1, std::min(workers, count)))
                << "workers=" << workers << " count=" << count;
            EXPECT_EQ(ids.count(std::this_thread::get_id()), 0u);
        }
    }
}

TEST(ParallelFor, ResultsBitIdenticalAcrossWorkerCounts)
{
    const std::size_t count = 4097;
    std::vector<double> reference(count);
    for (std::size_t i = 0; i < count; ++i)
        reference[i] = indexProbe(i);

    for (const std::size_t workers : {1, 2, 7}) {
        std::vector<double> out(count, -1.0);
        parallelFor(workers, count,
                    [&](std::size_t i) { out[i] = indexProbe(i); });
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(out[i], reference[i])
                << "workers=" << workers << " i=" << i;
    }
}

TEST(ParallelFor, RethrowsFirstExceptionAfterEveryOtherIndexRan)
{
    // Two indices throw. The rethrown exception is one of them — on
    // one worker, the one that ran first — and every other index ran
    // exactly once.
    for (const std::size_t workers : {1, 3}) {
        std::vector<std::atomic<int>> hits(1000);
        std::mutex orderMutex;
        std::vector<std::size_t> throwOrder;
        std::string caught;
        try {
            parallelFor(workers, hits.size(), [&](std::size_t i) {
                if (i == 300 || i == 700) {
                    {
                        std::lock_guard<std::mutex> lock(orderMutex);
                        throwOrder.push_back(i);
                    }
                    throw std::domain_error(std::to_string(i));
                }
                ++hits[i];
            });
        } catch (const std::domain_error &e) {
            caught = e.what();
        }
        ASSERT_EQ(throwOrder.size(), 2u) << "workers=" << workers;
        EXPECT_TRUE(caught == "300" || caught == "700")
            << "workers=" << workers << " caught=" << caught;
        if (workers == 1) {
            EXPECT_EQ(caught, std::to_string(throwOrder.front()));
        }
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), i == 300 || i == 700 ? 0 : 1)
                << "workers=" << workers << " i=" << i;
    }
}

TEST(ParallelFor, NestedCallCompletes)
{
    const std::size_t outer = 5;
    const std::size_t inner = 33;
    std::vector<std::atomic<int>> hits(outer * inner);
    parallelFor(3, outer, [&](std::size_t i) {
        parallelFor(2, inner,
                    [&](std::size_t j) { ++hits[i * inner + j]; });
    });
    for (std::size_t k = 0; k < hits.size(); ++k)
        EXPECT_EQ(hits[k].load(), 1) << "k=" << k;
}

TEST(ParallelFor, EveryIndexIsOneOwnPopOrOneSteal)
{
    // The benchmark reads pool.pop_own + pool.steal as the task count.
    auto &reg = metrics::Registry::global();
    const auto taken = [&reg]() {
        return reg.counter("pool.pop_own").value() +
            reg.counter("pool.steal").value();
    };
    const std::uint64_t before = taken();
    parallelFor(3, 100, [](std::size_t) {});
    EXPECT_EQ(taken() - before, 100u);
}

// ---------------------------------------------------------------------
// The earlier pool suite's checks of what parallelFor still does, kept
// under their original names. With the grain gone every index is its
// own task, so the "chunked" cases sweep worker counts instead.

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    std::vector<std::thread::id> ids;
    int value = 0;
    parallelFor(0, 1, [&](std::size_t) {
        ids.push_back(std::this_thread::get_id());
        value = 7;
    });
    EXPECT_EQ(value, 7);
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_NE(ids.front(), std::this_thread::get_id());
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(257);
    parallelFor(4, hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRethrowsFirstException)
{
    std::atomic<int> ran{0};
    EXPECT_THROW(parallelFor(4, 100,
                             [&](std::size_t i) {
                                 ++ran;
                                 if (i == 13)
                                     throw std::domain_error("13");
                             }),
                 std::domain_error);
    EXPECT_EQ(ran.load(), 100);
    // A later call is unaffected.
    std::atomic<int> later{0};
    parallelFor(4, 8, [&](std::size_t) { ++later; });
    EXPECT_EQ(later.load(), 8);
}

TEST(ThreadPool, ChunkedParallelForCoversEveryIndexExactlyOnce)
{
    // Counts below, at and above the worker count, including counts
    // not divisible by it: an atomic counter catches both skips and
    // double runs.
    for (const std::size_t workers : {1, 2, 7}) {
        for (const std::size_t count : {0, 1, 7, 100, 257, 4097}) {
            std::vector<std::atomic<int>> hits(count);
            parallelFor(workers, count, [&](std::size_t i) { ++hits[i]; });
            for (std::size_t i = 0; i < count; ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << "workers=" << workers << " count=" << count
                    << " i=" << i;
        }
    }
}

TEST(ThreadPool, ChunkedParallelForPropagatesExceptionPerGrain)
{
    // A throwing body surfaces through parallelFor, every other index
    // still runs exactly once, and a later call works.
    for (const std::size_t workers : {1, 3, 8}) {
        std::vector<std::atomic<int>> hits(1000);
        EXPECT_THROW(parallelFor(workers, hits.size(),
                                 [&](std::size_t i) {
                                     if (i == 500)
                                         throw std::domain_error("boom");
                                     ++hits[i];
                                 }),
                     std::domain_error)
            << "workers=" << workers;
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), i == 500 ? 0 : 1)
                << "workers=" << workers << " i=" << i;
        std::atomic<int> later{0};
        parallelFor(workers, 8, [&](std::size_t) { ++later; });
        EXPECT_EQ(later.load(), 8) << "workers=" << workers;
    }
}

// ---------------------------------------------------------------------
// Numeric environment knobs.

TEST(EnvKnob, ConfiguredThreadsHonoursEnv)
{
    unsetenv("VARSCHED_THREADS");
    const std::size_t fallback = configuredThreads();
    EXPECT_GE(fallback, 1u);
    setenv("VARSCHED_THREADS", "5", 1);
    EXPECT_EQ(configuredThreads(), 5u);
    for (const char *bad : {"bogus", "4x", "-3", "0", "", " 4", "+4",
                            "99999999999999999999999"}) {
        setenv("VARSCHED_THREADS", bad, 1);
        EXPECT_EQ(configuredThreads(), fallback) << "value=" << bad;
    }
    unsetenv("VARSCHED_THREADS");
}

TEST(EnvKnob, StrictParserRejectsTrailingNegativeAndOverflow)
{
    EXPECT_EQ(parseSize("13", 7), 13u);
    EXPECT_EQ(parseSize("18446744073709551615", 7),
              std::numeric_limits<std::size_t>::max());
    EXPECT_EQ(parseSize(nullptr, 7), 7u);
    for (const char *bad : {"", "4x", "4 ", "-1", "-0", "0", "0x10",
                            "1e3", "18446744073709551616",
                            "99999999999999999999999"})
        EXPECT_EQ(parseSize(bad, 7), 7u) << "value=" << bad;

    // envSize (VARSCHED_DIES, VARSCHED_TRIALS, VARSCHED_TRACE_BUFFER,
    // ...) is the same parser over getenv.
    setenv("VARSCHED_TEST_SIZE", "4x", 1);
    EXPECT_EQ(envSize("VARSCHED_TEST_SIZE", 7), 7u);
    setenv("VARSCHED_TEST_SIZE", "-4", 1);
    EXPECT_EQ(envSize("VARSCHED_TEST_SIZE", 7), 7u);
    setenv("VARSCHED_TEST_SIZE", "42", 1);
    EXPECT_EQ(envSize("VARSCHED_TEST_SIZE", 7), 42u);
    unsetenv("VARSCHED_TEST_SIZE");
    EXPECT_EQ(envSize("VARSCHED_TEST_SIZE", 7), 7u);
}

TEST(EnvKnob, BenchCompareIsOneParseForEveryGuard)
{
    // The benches' serial-rerun guards and SystemSimulator::run's
    // sampled-vs-exact guard all read the knob through benchCompare(),
    // so a value either turns every guard on or none of them.
    unsetenv("VARSCHED_BENCH_COMPARE");
    EXPECT_FALSE(benchCompare());
    setenv("VARSCHED_BENCH_COMPARE", "0", 1);
    EXPECT_FALSE(benchCompare());
    setenv("VARSCHED_BENCH_COMPARE", "1", 1);
    EXPECT_TRUE(benchCompare());
    setenv("VARSCHED_BENCH_COMPARE", "01", 1);
    EXPECT_TRUE(benchCompare());
    unsetenv("VARSCHED_BENCH_COMPARE");
}

// ---------------------------------------------------------------------
// Batch determinism.

DieParams
testParams()
{
    DieParams p;
    p.variation.gridSize = 48;
    return p;
}

BatchConfig
smallBatch()
{
    BatchConfig batch;
    batch.dieParams = testParams();
    batch.numDies = 3;
    batch.numTrials = 2;
    return batch;
}

std::vector<SystemConfig>
smallConfigs()
{
    std::vector<SystemConfig> configs(2);
    configs[0].sched = SchedAlgo::Random;
    configs[0].pm = PmKind::FoxtonStar;
    configs[1].sched = SchedAlgo::VarFAppIPC;
    configs[1].pm = PmKind::LinOpt;
    for (auto &c : configs) {
        c.ptargetW = 30.0;
        c.durationMs = 40.0;
    }
    return configs;
}

void
expectIdentical(const Summary &a, const Summary &b, const char *what)
{
    EXPECT_EQ(a.count(), b.count()) << what;
    EXPECT_EQ(a.mean(), b.mean()) << what;
    EXPECT_EQ(a.stddev(), b.stddev()) << what;
    EXPECT_EQ(a.min(), b.min()) << what;
    EXPECT_EQ(a.max(), b.max()) << what;
    EXPECT_EQ(a.sum(), b.sum()) << what;
}

void
expectIdentical(const BatchResult &a, const BatchResult &b)
{
    ASSERT_EQ(a.absolute.size(), b.absolute.size());
    for (std::size_t k = 0; k < a.absolute.size(); ++k) {
        expectIdentical(a.absolute[k].mips, b.absolute[k].mips,
                        "abs mips");
        expectIdentical(a.absolute[k].weightedIpc,
                        b.absolute[k].weightedIpc, "abs weighted");
        expectIdentical(a.absolute[k].powerW, b.absolute[k].powerW,
                        "abs power");
        expectIdentical(a.absolute[k].freqHz, b.absolute[k].freqHz,
                        "abs freq");
        expectIdentical(a.absolute[k].ed2, b.absolute[k].ed2,
                        "abs ed2");
        expectIdentical(a.absolute[k].weightedEd2,
                        b.absolute[k].weightedEd2, "abs wed2");
        expectIdentical(a.absolute[k].deviation,
                        b.absolute[k].deviation, "abs deviation");
        expectIdentical(a.absolute[k].worstAging,
                        b.absolute[k].worstAging, "abs aging");
        expectIdentical(a.absolute[k].lifetimeYears,
                        b.absolute[k].lifetimeYears, "abs lifetime");
        expectIdentical(a.relative[k].mips, b.relative[k].mips,
                        "rel mips");
        expectIdentical(a.relative[k].weightedIpc,
                        b.relative[k].weightedIpc, "rel weighted");
        expectIdentical(a.relative[k].weightedProgress,
                        b.relative[k].weightedProgress,
                        "rel progress");
        expectIdentical(a.relative[k].powerW, b.relative[k].powerW,
                        "rel power");
        expectIdentical(a.relative[k].freqHz, b.relative[k].freqHz,
                        "rel freq");
        expectIdentical(a.relative[k].ed2, b.relative[k].ed2,
                        "rel ed2");
        expectIdentical(a.relative[k].weightedEd2,
                        b.relative[k].weightedEd2, "rel wed2");
    }
}

TEST(BatchDeterminism, BitIdenticalAcrossWorkerCounts)
{
    const BatchConfig base = smallBatch();
    const auto configs = smallConfigs();

    BatchConfig serial = base;
    serial.workerThreads = 1;
    const BatchResult reference = runBatch(serial, 6, configs);
    ASSERT_EQ(reference.absolute[0].mips.count(),
              base.numDies * base.numTrials);

    for (std::size_t workers : {2u, 7u}) {
        BatchConfig parallel = base;
        parallel.workerThreads = workers;
        const BatchResult r = runBatch(parallel, 6, configs);
        expectIdentical(r, reference);
    }
}

TEST(BatchDeterminism, WorkerThreadsZeroReadsEnv)
{
    // workerThreads = 0 resolves through VARSCHED_THREADS; pin it so
    // the test exercises the parallel path deterministically.
    setenv("VARSCHED_THREADS", "3", 1);
    BatchConfig batch = smallBatch();
    batch.numDies = 2;
    batch.numTrials = 1;
    const auto configs = smallConfigs();
    const BatchResult viaEnv = runBatch(batch, 4, configs);
    unsetenv("VARSCHED_THREADS");

    BatchConfig serial = batch;
    serial.workerThreads = 1;
    expectIdentical(viaEnv, runBatch(serial, 4, configs));
}

TEST(BatchDeterminism, TupleSeedsArePureFunctions)
{
    const BatchConfig batch = smallBatch();
    // Independent of call order or repetition.
    const std::uint64_t d2 = dieSeedFor(batch, 2);
    const std::uint64_t d0 = dieSeedFor(batch, 0);
    EXPECT_EQ(dieSeedFor(batch, 2), d2);
    EXPECT_EQ(dieSeedFor(batch, 0), d0);
    EXPECT_NE(d0, d2);

    Rng a = workloadRngFor(batch, 1, 1);
    Rng b = workloadRngFor(batch, 1, 1);
    EXPECT_EQ(a.next(), b.next());
    Rng c = workloadRngFor(batch, 1, 0);
    Rng d = workloadRngFor(batch, 0, 1);
    EXPECT_NE(c.next(), d.next());
}

// ---------------------------------------------------------------------
// Cached-factorisation equivalence.

TEST(CachedFactor, ThermalSolveMatchesCG)
{
    const Floorplan plan(20, 340.0);
    const ThermalModel model(plan);
    const Matrix &g = model.conductance();
    const std::size_t n = g.rows();
    const Matrix response = model.blockResponse();
    const std::size_t blocks = response.cols();
    ASSERT_EQ(blocks, 22u);
    ASSERT_EQ(response.rows(), n);

    const auto agree = [](double got, double want) {
        return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
    };
    const auto rhsFor = [&](const std::vector<double> &blockPower) {
        std::vector<double> rhs(n, 0.0);
        std::copy(blockPower.begin(), blockPower.end(), rhs.begin());
        rhs[n - 1] = model.params().ambientC / model.params().sinkToAmbientR;
        return rhs;
    };

    // solve() on the cached factor against CG on the same matrix.
    std::vector<double> corePower(20, 3.0);
    corePower[7] = 9.0; // asymmetric map
    const std::vector<double> l2Power = {2.5, 4.0};
    const ThermalResult direct = model.solve(corePower, l2Power);
    std::vector<double> blockPower = corePower;
    blockPower.insert(blockPower.end(), l2Power.begin(), l2Power.end());
    const std::vector<double> cg = solveCG(g, rhsFor(blockPower), 1e-12);
    for (std::size_t c = 0; c < 20; ++c)
        EXPECT_TRUE(agree(direct.coreTempC[c], cg[c])) << "core " << c;
    for (std::size_t l = 0; l < 2; ++l)
        EXPECT_TRUE(agree(direct.l2TempC[l], cg[20 + l])) << "L2 " << l;
    EXPECT_TRUE(agree(direct.spreaderC, cg[n - 2]));
    EXPECT_TRUE(agree(direct.sinkC, cg[n - 1]));

    // t0 is the unpowered CG solution; column j of R is the CG
    // response to one watt in block j.
    const std::vector<double> zero(blocks, 0.0);
    const std::vector<double> t0 = solveCG(g, rhsFor(zero), 1e-12);
    const std::vector<double> zeroPower = model.zeroPowerTemps();
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_TRUE(agree(zeroPower[i], t0[i])) << "node " << i;
    for (std::size_t j = 0; j < blocks; ++j) {
        std::vector<double> unit(n, 0.0);
        unit[j] = 1.0;
        const std::vector<double> column = solveCG(g, unit, 1e-12);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(agree(response(i, j), column[i]))
                << "R(" << i << ", " << j << ")";
    }

    // And the physics invariant: total power in leaves through the
    // sink, with every block above the spreader, the spreader above
    // the sink and the sink above ambient.
    double totalPowerW = 2.5 + 4.0;
    for (double p : corePower)
        totalPowerW += p;
    const double sinkFlowW =
        (direct.sinkC - model.params().ambientC) /
        model.params().sinkToAmbientR;
    EXPECT_NEAR(sinkFlowW, totalPowerW, 1e-6 * totalPowerW);
    for (double t : direct.coreTempC)
        EXPECT_GT(t, direct.spreaderC);
    EXPECT_GT(direct.spreaderC, direct.sinkC);
    EXPECT_GT(direct.sinkC, model.params().ambientC);
}

TEST(CachedFactor, CholeskySolveMatchesCGOnRandomSpdSystem)
{
    // Direct agreement check on a synthetic SPD system of the same
    // character as the thermal network (diagonally dominant).
    Rng rng(99);
    const std::size_t n = 24;
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < i; ++j) {
            const double v = -rng.uniform(0.0, 1.0);
            a(i, j) = v;
            a(j, i) = v;
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        double offDiag = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            if (j != i)
                offDiag += std::abs(a(i, j));
        a(i, i) = offDiag + rng.uniform(0.5, 1.5);
    }
    std::vector<double> b(n);
    for (auto &v : b)
        v = rng.uniform(-10.0, 10.0);

    Matrix l;
    ASSERT_TRUE(cholesky(a, l));
    const std::vector<double> direct = choleskySolve(l, b);
    const std::vector<double> cg = solveCG(a, b, 1e-12);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(direct[i], cg[i],
                    1e-9 * std::max(1.0, std::abs(cg[i])));
}

// ---------------------------------------------------------------------
// Varius factor cache.

TEST(FieldFactorCache, CachedFactorGivesIdenticalFields)
{
    const std::size_t n = 12;
    const double phi = 0.5;

    clearFieldFactorCache();
    // Clear the whole-sample cache too: these tests exercise the
    // factor-on-miss path, which a sample-cache hit would bypass.
    clearFieldSampleCache();
    EXPECT_EQ(fieldFactorCacheSize(), 0u);

    Rng cold(4242);
    const FieldSample first =
        generateField(n, phi, cold, FieldMethod::Cholesky);
    EXPECT_EQ(fieldFactorCacheSize(), 1u);

    // Same stream, now served from the cache: values must be
    // bit-identical to the cold (factor-on-miss) path. (Drop the
    // sample cache again so the hit lands on the factor cache.)
    clearFieldSampleCache();
    Rng warm(4242);
    const FieldSample second =
        generateField(n, phi, warm, FieldMethod::Cholesky);
    EXPECT_EQ(fieldFactorCacheSize(), 1u);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            EXPECT_EQ(first.at(r, c), second.at(r, c));

    // A different geometry gets its own entry.
    Rng other(7);
    generateField(n + 2, phi, other, FieldMethod::Cholesky);
    EXPECT_EQ(fieldFactorCacheSize(), 2u);
    clearFieldFactorCache();
    clearFieldSampleCache();
    EXPECT_EQ(fieldFactorCacheSize(), 0u);
}

TEST(FieldFactorCache, ConcurrentGenerationIsSafeAndDeterministic)
{
    clearFieldFactorCache();
    clearFieldSampleCache();
    const std::size_t n = 10;
    const double phi = 0.4;

    Rng ref(123);
    const FieldSample expected =
        generateField(n, phi, ref, FieldMethod::Cholesky);
    clearFieldFactorCache();
    clearFieldSampleCache();

    // Race many generators at the same cold cache; every one must
    // still see exactly the reference field for its seed.
    std::vector<FieldSample> out(16);
    parallelFor(4, out.size(), [&](std::size_t i) {
        Rng rng(123);
        out[i] = generateField(n, phi, rng, FieldMethod::Cholesky);
    });
    EXPECT_EQ(fieldFactorCacheSize(), 1u);
    for (const FieldSample &f : out)
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                EXPECT_EQ(f.at(r, c), expected.at(r, c));
}

} // namespace
} // namespace varsched
