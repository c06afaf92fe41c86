/**
 * @file
 * Batch experiment harness: the paper evaluates every configuration
 * over 200 manufactured dies and 20 workload trials, reporting
 * averages normalised to a baseline configuration. runBatch()
 * reproduces that protocol with paired comparisons — every
 * configuration sees the *same* (die, workload, seed) tuples, so the
 * relative metrics are differences in algorithm, not in luck.
 *
 * Batch sizes default to bench-friendly values and can be raised to
 * the paper's 200x20 through the VARSCHED_DIES / VARSCHED_TRIALS
 * environment variables.
 */

#ifndef VARSCHED_CORE_EXPERIMENT_HH
#define VARSCHED_CORE_EXPERIMENT_HH

#include <cstdint>
#include <vector>

#include "chip/die.hh"
#include "core/system.hh"
#include "runtime/env.hh"
#include "solver/stats.hh"

namespace varsched
{

/** Batch dimensions. */
struct BatchConfig
{
    DieParams dieParams;
    std::size_t numDies = 20;
    std::size_t numTrials = 6;
    std::uint64_t seed = 2026;

    /**
     * Worker threads for the batch runner. 0 (the default) resolves
     * to the VARSCHED_THREADS environment override, else hardware
     * concurrency. Results are bit-identical at every setting: each
     * (die, trial) tuple's streams are a pure function of (seed, die,
     * trial), and the metric reduction always runs in serial tuple
     * order.
     */
    std::size_t workerThreads = 0;

    /**
     * Application pool workloads draw from; nullptr (default) means
     * specApplications(). Long-horizon benches point this at
     * trafficApplications(). Must outlive the batch run.
     */
    const std::vector<AppProfile> *workloadPool = nullptr;
};

/**
 * Seed that manufactures die @p die of the batch — a pure function
 * of (batch.seed, die), so dies can be built in any order or
 * concurrently.
 */
std::uint64_t dieSeedFor(const BatchConfig &batch, std::size_t die);

/**
 * Workload/run stream for tuple (die, trial) — a pure function of
 * (batch.seed, die, trial). The first draws pick the workload; the
 * next draw is the per-run simulator seed (identical across
 * configurations, preserving the paired-comparison protocol).
 */
Rng workloadRngFor(const BatchConfig &batch, std::size_t die,
                   std::size_t trial);

/**
 * Batch sized from defaults and the VARSCHED_DIES / VARSCHED_TRIALS
 * environment overrides.
 */
BatchConfig defaultBatch(std::size_t dies, std::size_t trials);

/** Per-configuration absolute metrics (one sample per die x trial). */
struct ConfigMetrics
{
    Summary mips;
    Summary weightedIpc;
    Summary powerW;
    Summary freqHz;
    Summary ed2;
    Summary weightedEd2;
    Summary deviation;
    Summary worstAging;    ///< Worst core's aging rate per run.
    Summary lifetimeYears; ///< Projected chip lifetime per run.
};

/**
 * Per-configuration metrics relative to configuration 0, paired per
 * (die, trial).
 */
struct RelativeMetrics
{
    Summary mips;
    Summary weightedIpc;
    Summary weightedProgress;
    Summary powerW;
    Summary freqHz;
    Summary ed2;
    Summary weightedEd2;
};

/** Outcome of runBatch. */
struct BatchResult
{
    std::vector<ConfigMetrics> absolute;
    std::vector<RelativeMetrics> relative;

    // Phase-sampling telemetry summed/maxed over every run. Deterministic
    // for a given batch config, but excluded from the bit-identity
    // comparison, so toggling sampling telemetry never masks a metric
    // divergence.
    std::uint64_t exactTicks = 0;   ///< Ticks settled exactly.
    std::uint64_t sampledTicks = 0; ///< Ticks extrapolated.
    double estErrMax = 0.0;         ///< Worst run-level est_err.
    std::uint64_t phaseInvalidations = 0; ///< Basis invalidations.
};

/**
 * Run every configuration over the same dies and workloads. The
 * (die, trial) tuples are independent by construction and execute
 * through parallelFor (see BatchConfig::workerThreads); metrics are
 * reduced in serial tuple order afterwards, so the result is
 * bit-identical at any worker count.
 *
 * @param batch Batch dimensions and technology parameters.
 * @param numThreads Threads per workload.
 * @param configs Configurations; configs[0] is the baseline for the
 *        relative metrics.
 */
BatchResult runBatch(const BatchConfig &batch, std::size_t numThreads,
                     const std::vector<SystemConfig> &configs);

} // namespace varsched

#endif // VARSCHED_CORE_EXPERIMENT_HH
