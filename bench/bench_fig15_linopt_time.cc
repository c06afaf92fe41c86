/**
 * @file
 * Fig 15 of the paper: execution time of one LinOpt invocation for
 * 1-20 threads in the three power environments, measured with
 * google-benchmark on real-die snapshots.
 *
 * Paper: time grows with thread count and with looser budgets
 * (larger search space); worst case ~6 us on a 4 GHz core —
 * negligible against the 10 ms invocation period. The paper's
 * method solves LinOpt's LP with a general simplex, so BM_Simplex
 * times solveSimplex on that LP, built from the manager's own fit by
 * the contract tests' oracle (tests/lp_oracle.hh), and reports its
 * pivots. BM_LinOpt times the whole decision as the manager makes
 * it, with the LP solved by the ratio rule. Also measures SAnn at
 * its evaluation budget for the "orders of magnitude more expensive"
 * comparison of Section 7.5.
 */

#include <benchmark/benchmark.h>

#include <map>

#include "chip/die.hh"
#include "chip/sensors.hh"
#include "core/linopt.hh"
#include "core/sann.hh"
#include "core/sched.hh"
#include "tests/simplex.hh"
#include "tests/lp_oracle.hh"

using namespace varsched;

namespace
{

/** Snapshot cache shared by all benchmark repetitions. */
const ChipSnapshot &
snapshotFor(std::size_t threads, double ptarget20)
{
    static std::map<std::pair<std::size_t, int>, ChipSnapshot> cache;
    static Die *die = nullptr;
    if (die == nullptr) {
        static DieParams params;
        static Die theDie(params, 4242);
        die = &theDie;
    }
    const auto key = std::make_pair(
        threads, static_cast<int>(ptarget20));
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;

    ChipEvaluator evaluator(*die);
    Rng rng(threads * 31 + 7);
    auto apps = randomWorkload(threads, rng);
    auto asg = scheduleThreads(SchedAlgo::VarFAppIPC, *die, apps, rng);
    std::vector<CoreWork> work(die->numCores());
    for (std::size_t t = 0; t < threads; ++t)
        work[asg[t]].app = apps[t];
    std::vector<int> top(die->numCores(),
                         static_cast<int>(die->maxLevel()));
    const auto cond = evaluator.evaluate(work, top);
    const double ptarget =
        ptarget20 * static_cast<double>(threads) / 20.0;
    auto snap = buildSnapshot(evaluator, work, cond, ptarget,
                              2.0 * ptarget /
                                  static_cast<double>(threads),
                              nullptr);
    return cache.emplace(key, std::move(snap)).first->second;
}

void
BM_Simplex(benchmark::State &state)
{
    const auto threads = static_cast<std::size_t>(state.range(0));
    const double ptarget20 = static_cast<double>(state.range(1));
    const LinOptConfig config; // the manager's default fit
    LinOptFit fit;
    fitLinOpt(snapshotFor(threads, ptarget20), config.powerSamplePoints,
              config.objective, fit);
    const LinearProgram lp = linOptProgram(fit);
    std::size_t pivots = 0;
    for (auto _ : state) {
        auto result = solveSimplex(lp);
        pivots = result.pivots;
        benchmark::DoNotOptimize(result);
    }
    state.counters["pivots"] = static_cast<double>(pivots);
}

void
BM_LinOpt(benchmark::State &state)
{
    const auto threads = static_cast<std::size_t>(state.range(0));
    const double ptarget20 = static_cast<double>(state.range(1));
    const ChipSnapshot &snap = snapshotFor(threads, ptarget20);
    LinOptManager manager;
    for (auto _ : state) {
        const auto &levels = manager.selectLevels(snap);
        benchmark::DoNotOptimize(levels);
    }
}

void
BM_SAnn(benchmark::State &state)
{
    const auto threads = static_cast<std::size_t>(state.range(0));
    const ChipSnapshot &snap = snapshotFor(threads, 75);
    SAnnConfig config;
    config.maxEvals = static_cast<std::size_t>(state.range(1));
    SAnnManager manager(config);
    for (auto _ : state) {
        const auto &levels = manager.selectLevels(snap);
        benchmark::DoNotOptimize(levels);
    }
}

void
BM_FoxtonStar(benchmark::State &state)
{
    const auto threads = static_cast<std::size_t>(state.range(0));
    const ChipSnapshot &snap = snapshotFor(threads, 75);
    FoxtonStarManager manager;
    for (auto _ : state) {
        const auto &levels = manager.selectLevels(snap);
        benchmark::DoNotOptimize(levels);
    }
}

} // namespace

// Thread counts 1-20 across the three power environments
// (50/75/100 W at 20 threads).
BENCHMARK(BM_Simplex)
    ->ArgsProduct({{1, 2, 4, 8, 16, 20}, {50, 75, 100}})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_LinOpt)
    ->ArgsProduct({{1, 2, 4, 8, 16, 20}, {50, 75, 100}})
    ->Unit(benchmark::kMicrosecond);

// SAnn at a bench-scale and at the paper-scale evaluation budget.
BENCHMARK(BM_SAnn)
    ->Args({20, 8000})
    ->Args({20, 100000})
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_FoxtonStar)->Arg(20)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
