/**
 * @file
 * Monte-Carlo die-population fan-out.
 *
 * The manufacture-bound benches (yield curves, Fig 4/5 variation
 * histograms, the ABB trade-off) all share one shape: manufacture a
 * lot of independent dies and fold a per-die statistic. Each die is a
 * pure function of (DieParams, seed), and the per-die seeds are a
 * pure function of (lot seed, die index) — so the lot can fan out
 * through parallelFor and still produce results bit-identical at any
 * worker count: the result vector is ordered by die index (ordered
 * reduction), and no worker ever touches another die's state. The
 * DiePopulation tests check the lot bit-identical across worker
 * counts.
 */

#ifndef VARSCHED_RUNTIME_DIEPOP_HH
#define VARSCHED_RUNTIME_DIEPOP_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "chip/die.hh"
#include "runtime/threadpool.hh"
#include "solver/rng.hh"

namespace varsched
{

/**
 * Per-die seeds for a lot: seeds[i] = deriveSeed(lotSeed, tag, i).
 * Precomputing the whole vector (rather than drawing from a shared
 * sequential Rng) is what makes the fan-out order-independent.
 */
inline std::vector<std::uint64_t>
diePopulationSeeds(std::size_t count, std::uint64_t lotSeed)
{
    std::vector<std::uint64_t> seeds(count);
    for (std::size_t i = 0; i < count; ++i)
        seeds[i] = deriveSeed(lotSeed, 0xD1EF00, i);
    return seeds;
}

/** Result of a die-population run. */
template <typename R>
struct DiePopulationRun
{
    /** Per-die results, ordered by die index regardless of workers. */
    std::vector<R> results;
};

/**
 * Manufacture Die(params, seeds[i]) for every i and evaluate
 * perDie(die, i), fanning the lot across VARSCHED_THREADS workers.
 *
 * @param perDie Callable (const Die &, std::size_t index) -> R. Must
 *        be a pure function of its arguments: it runs concurrently,
 *        and only a pure one gives the same results at every worker
 *        count.
 * @param workerOverride Worker count; 0 means configuredThreads().
 */
template <typename Fn>
auto
runDiePopulation(const DieParams &params,
                 const std::vector<std::uint64_t> &seeds, Fn &&perDie,
                 std::size_t workerOverride = 0)
    -> DiePopulationRun<std::decay_t<
        std::invoke_result_t<Fn &, const Die &, std::size_t>>>
{
    using R = std::decay_t<
        std::invoke_result_t<Fn &, const Die &, std::size_t>>;

    DiePopulationRun<R> run;
    run.results.resize(seeds.size());

    const std::size_t workers =
        workerOverride > 0 ? workerOverride : configuredThreads();
    // Manufacturing a die costs milliseconds, so each worker claiming
    // the next die from the shared counter balances the lot.
    parallelFor(workers, seeds.size(), [&](std::size_t i) {
        const Die die(params, seeds[i]);
        run.results[i] = perDie(die, i);
    });
    return run;
}

} // namespace varsched

#endif // VARSCHED_RUNTIME_DIEPOP_HH
