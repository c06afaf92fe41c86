/**
 * @file
 * Thread-pool unit tests and the batch-runner determinism suite: the
 * parallel runBatch() must produce bit-identical metrics at every
 * worker count, the cached thermal factorisation must agree with the
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
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/system.hh"
#include "runtime/threadpool.hh"
#include "solver/matrix.hh"
#include "tests/cg_reference.hh"
#include "thermal/thermal.hh"
#include "varius/field.hh"

namespace varsched
{
namespace
{

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    auto a = pool.submit([]() { return 40 + 2; });
    auto b = pool.submit([]() { return std::string("ok"); });
    EXPECT_EQ(a.get(), 42);
    EXPECT_EQ(b.get(), "ok");
}

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.submit([]() { return 7; }).get(), 7);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures)
{
    ThreadPool pool(2);
    auto f = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(f.get(), std::runtime_error);
    // The worker that threw must still be alive for later tasks.
    EXPECT_EQ(pool.submit([]() { return 1; }).get(), 1);
    EXPECT_EQ(pool.submit([]() { return 2; }).get(), 2);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i)
            pool.submit([&ran]() { ++ran; });
        // Destructor must run every queued task before joining.
    }
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, TasksSubmittedDuringShutdownStillRun)
{
    // A task that enqueues follow-up work races the destructor: by
    // the time the inner submit() runs, stopping_ may already be set.
    // The drain-then-join contract still owes us every link of the
    // chain, because workers only exit on an *empty* queue.
    std::atomic<int> ran{0};
    {
        // chain outlives pool (declared first), because the joining
        // destructor still runs tasks that call into it.
        std::function<void(int)> chain;
        ThreadPool pool(1);
        // Single worker: the chain tasks are enqueued strictly after
        // the destructor has begun waiting to join.
        chain = [&](int depth) {
            ++ran;
            if (depth > 0)
                pool.submit([&chain, depth]() { chain(depth - 1); });
        };
        pool.submit([&chain]() {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
            chain(8);
        });
        // Destructor runs here, while the chain is still growing.
    }
    EXPECT_EQ(ran.load(), 9);
}

TEST(ThreadPool, ExceptionDoesNotWedgeBlockedSubmitters)
{
    // While one task throws, other threads are blocked in submit()
    // contending for the queue mutex. The throw must neither poison
    // the lock nor kill the worker: every concurrently submitted
    // task still runs and every future becomes ready.
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    std::atomic<bool> go{false};

    auto bad = pool.submit([&go]() -> int {
        while (!go.load())
            std::this_thread::yield();
        throw std::runtime_error("mid-flight failure");
    });

    std::vector<std::thread> submitters;
    std::vector<std::future<int>> futures(24);
    std::mutex futuresMutex;
    for (int s = 0; s < 4; ++s) {
        submitters.emplace_back([&, s]() {
            for (int i = 0; i < 6; ++i) {
                auto f = pool.submit([&ran]() {
                    ++ran;
                    return 1;
                });
                std::lock_guard<std::mutex> lock(futuresMutex);
                futures[s * 6 + i] = std::move(f);
            }
        });
    }
    go = true;
    for (auto &t : submitters)
        t.join();

    EXPECT_THROW(bad.get(), std::runtime_error);
    for (auto &f : futures) {
        ASSERT_TRUE(f.valid());
        EXPECT_EQ(f.get(), 1);
    }
    EXPECT_EQ(ran.load(), 24);
}

TEST(ThreadPool, DestructorLeavesPendingFuturesReady)
{
    // Futures may outlive the pool. The destructor drains the queue,
    // so after it returns every future is ready — values and
    // exceptions alike — and get() never blocks or crashes on a
    // dangling pool.
    std::vector<std::future<int>> futures;
    {
        ThreadPool pool(2);
        for (int i = 0; i < 32; ++i)
            futures.push_back(pool.submit([i]() -> int {
                if (i % 8 == 3)
                    throw std::domain_error("planned");
                return i;
            }));
        // None of the futures were waited on; destructor drains.
    }
    for (int i = 0; i < 32; ++i) {
        ASSERT_TRUE(futures[i].valid());
        if (i % 8 == 3)
            EXPECT_THROW(futures[i].get(), std::domain_error);
        else
            EXPECT_EQ(futures[i].get(), i);
    }
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    pool.parallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForRethrowsFirstException)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallelFor(100,
                                  [&](std::size_t i) {
                                      ++ran;
                                      if (i == 13)
                                          throw std::domain_error("13");
                                  }),
                 std::domain_error);
    EXPECT_GE(ran.load(), 1);
    // Pool survives for further use.
    pool.parallelFor(8, [](std::size_t) {});
}

TEST(ThreadPool, ConfiguredThreadsHonoursEnv)
{
    setenv("VARSCHED_THREADS", "5", 1);
    EXPECT_EQ(configuredThreads(), 5u);
    setenv("VARSCHED_THREADS", "bogus", 1);
    EXPECT_GE(configuredThreads(), 1u);
    unsetenv("VARSCHED_THREADS");
    EXPECT_GE(configuredThreads(), 1u);
}

// ---------------------------------------------------------------------
// Chunked parallelFor: grain-size sweeps.

/** A cheap pure function of the index for bit-identity checks. */
double
chunkProbe(std::size_t i)
{
    const double x = 0.001 * static_cast<double>(i) - 1.7;
    return x * x * 1.000000001 + std::sin(x);
}

TEST(ThreadPool, ChunkedParallelForCoversEveryIndexExactlyOnce)
{
    // Grain sizes below/at/above the count, counts not divisible by
    // the grain, and pool sizes spanning 1..7 workers: every index
    // must run exactly once (an atomic counter catches both skips
    // and double-runs from bad chunk-boundary arithmetic).
    const std::size_t counts[] = {0, 1, 7, 100, 257, 4097};
    const std::size_t grains[] = {1, 8, 4096};
    const std::size_t poolSizes[] = {1, 2, 7};
    for (const std::size_t workers : poolSizes) {
        ThreadPool pool(workers);
        for (const std::size_t count : counts) {
            for (const std::size_t grain : grains) {
                std::vector<std::atomic<int>> hits(count);
                pool.parallelFor(
                    count, [&](std::size_t i) { ++hits[i]; }, grain);
                for (std::size_t i = 0; i < count; ++i)
                    EXPECT_EQ(hits[i].load(), 1)
                        << "workers=" << workers << " count=" << count
                        << " grain=" << grain << " i=" << i;
            }
        }
    }
}

TEST(ThreadPool, ChunkedParallelForIsBitIdenticalAcrossGrains)
{
    // The per-index results of a pure function must be bit-identical
    // regardless of grain size or worker count — chunking only
    // partitions the index space, it must not reorder or merge any
    // per-index computation.
    const std::size_t count = 4097; // not divisible by any grain
    std::vector<double> reference(count);
    for (std::size_t i = 0; i < count; ++i)
        reference[i] = chunkProbe(i);

    for (const std::size_t workers : {1, 2, 7}) {
        ThreadPool pool(workers);
        for (const std::size_t grain : {1, 8, 4096}) {
            std::vector<double> out(count, -1.0);
            pool.parallelFor(
                count, [&](std::size_t i) { out[i] = chunkProbe(i); },
                grain);
            for (std::size_t i = 0; i < count; ++i)
                EXPECT_EQ(out[i], reference[i])
                    << "workers=" << workers << " grain=" << grain
                    << " i=" << i;
        }
    }
}

TEST(ThreadPool, ChunkedParallelForPropagatesExceptionPerGrain)
{
    // Whatever the grain, a throwing body must surface through
    // parallelFor, the remaining chunks must still complete (their
    // indices run), and the pool must stay usable afterwards.
    for (const std::size_t grain : {1, 8, 4096}) {
        ThreadPool pool(3);
        std::vector<std::atomic<int>> hits(1000);
        EXPECT_THROW(
            pool.parallelFor(
                hits.size(),
                [&](std::size_t i) {
                    if (i == 500)
                        throw std::domain_error("boom");
                    ++hits[i];
                },
                grain),
            std::domain_error)
            << "grain=" << grain;
        // No index ran twice, and indices outside the throwing chunk
        // all ran exactly once.
        int ran = 0;
        for (std::size_t i = 0; i < hits.size(); ++i) {
            EXPECT_LE(hits[i].load(), 1) << "grain=" << grain;
            ran += hits[i].load();
        }
        EXPECT_GE(ran, 1) << "grain=" << grain;
        // Indices before the throwing one in its chunk did run; with
        // grain 4096 everything lives in one chunk, so exactly the
        // pre-throw prefix ran.
        if (grain >= hits.size()) {
            EXPECT_EQ(ran, 500) << "grain=" << grain;
        }
        pool.parallelFor(
            8, [](std::size_t) {}, 1);
    }
}

TEST(ThreadPool, ChunkedParallelForUnderVarschedThreadsEnv)
{
    // configuredThreads()-sized pools at 1/2/7 via the env knob, the
    // way the benches construct theirs.
    for (const char *threads : {"1", "2", "7"}) {
        setenv("VARSCHED_THREADS", threads, 1);
        ThreadPool pool(configuredThreads());
        std::vector<std::atomic<int>> hits(613);
        for (const std::size_t grain : {1, 8, 4096}) {
            for (auto &h : hits)
                h.store(0);
            pool.parallelFor(
                hits.size(), [&](std::size_t i) { ++hits[i]; }, grain);
            for (std::size_t i = 0; i < hits.size(); ++i)
                EXPECT_EQ(hits[i].load(), 1)
                    << "threads=" << threads << " grain=" << grain;
        }
    }
    unsetenv("VARSCHED_THREADS");
}

TEST(ThreadPool, NumaNodePartitioningStillCoversAllIndices)
{
    // VARSCHED_NUMA_NODES is read at pool construction; with two
    // groups the chunk ranges are partitioned across the groups but
    // coverage and results must be unchanged.
    setenv("VARSCHED_NUMA_NODES", "2", 1);
    {
        ThreadPool pool(4);
        EXPECT_EQ(pool.numaNodes(), 2u);
        std::vector<std::atomic<int>> hits(1025);
        for (const std::size_t grain : {0, 1, 8}) {
            for (auto &h : hits)
                h.store(0);
            pool.parallelFor(
                hits.size(), [&](std::size_t i) { ++hits[i]; }, grain);
            for (std::size_t i = 0; i < hits.size(); ++i)
                EXPECT_EQ(hits[i].load(), 1) << "grain=" << grain;
        }
    }
    unsetenv("VARSCHED_NUMA_NODES");
    ThreadPool pool(4);
    EXPECT_EQ(pool.numaNodes(), 1u);
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
    ThreadPool pool(4);
    std::vector<FieldSample> out(16);
    pool.parallelFor(out.size(), [&](std::size_t i) {
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
