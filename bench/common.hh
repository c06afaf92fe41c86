/**
 * @file
 * Shared helpers for the bench binaries that regenerate the paper's
 * tables and figures. Each binary prints the same rows/series the
 * paper reports, normalised the same way, so output can be compared
 * against the figures directly. Batch sizes honour VARSCHED_DIES /
 * VARSCHED_TRIALS; the batch runner's worker count honours
 * VARSCHED_THREADS (default: hardware concurrency).
 *
 * Benches route their batches through bench::runBatch and their
 * die-population fan-outs through bench::runDies. With
 * VARSCHED_BENCH_COMPARE=1 each one is re-run on a single worker and
 * the bench aborts unless the parallel result is bit-identical to the
 * serial one. Benches measure no time: performance is recorded by the
 * benchmark/ program, and the per-phase split of the tick loop comes
 * from the tracer's spans (VARSCHED_TRACE).
 */

#ifndef VARSCHED_BENCH_COMMON_HH
#define VARSCHED_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "runtime/diepop.hh"
#include "runtime/env.hh"
#include "runtime/threadpool.hh"

namespace varsched::bench
{

/** Print a banner naming the experiment being regenerated. */
inline void
banner(const std::string &what, const std::string &paperSays)
{
    std::printf("=================================================="
                "====================\n");
    std::printf("%s\n", what.c_str());
    std::printf("Paper reference: %s\n", paperSays.c_str());
    std::printf("=================================================="
                "====================\n");
}

/** Print the batch dimensions in use. */
inline void
describeBatch(const BatchConfig &batch)
{
    std::printf("[batch: %zu dies x %zu trials on %zu worker threads; "
                "override with VARSCHED_DIES / VARSCHED_TRIALS / "
                "VARSCHED_THREADS]\n\n",
                batch.numDies, batch.numTrials,
                batch.workerThreads > 0 ? batch.workerThreads
                                        : configuredThreads());
}

/** The thread counts the paper sweeps in the scheduling figures. */
inline std::vector<std::size_t>
threadSweep(bool includeTwo)
{
    if (includeTwo)
        return {2, 4, 8, 16, 20};
    return {4, 8, 16, 20};
}

/** Exact (bitwise) equality of two summaries. */
inline bool
identicalSummary(const Summary &a, const Summary &b)
{
    return a.count() == b.count() && a.mean() == b.mean() &&
           a.stddev() == b.stddev() && a.min() == b.min() &&
           a.max() == b.max() && a.sum() == b.sum();
}

/** Exact equality of two batch results (every summary, every config). */
inline bool
identicalBatchResult(const BatchResult &a, const BatchResult &b)
{
    if (a.absolute.size() != b.absolute.size())
        return false;
    for (std::size_t k = 0; k < a.absolute.size(); ++k) {
        const ConfigMetrics &x = a.absolute[k];
        const ConfigMetrics &y = b.absolute[k];
        if (!identicalSummary(x.mips, y.mips) ||
            !identicalSummary(x.weightedIpc, y.weightedIpc) ||
            !identicalSummary(x.powerW, y.powerW) ||
            !identicalSummary(x.freqHz, y.freqHz) ||
            !identicalSummary(x.ed2, y.ed2) ||
            !identicalSummary(x.weightedEd2, y.weightedEd2) ||
            !identicalSummary(x.deviation, y.deviation) ||
            !identicalSummary(x.worstAging, y.worstAging) ||
            !identicalSummary(x.lifetimeYears, y.lifetimeYears))
            return false;
        const RelativeMetrics &p = a.relative[k];
        const RelativeMetrics &q = b.relative[k];
        if (!identicalSummary(p.mips, q.mips) ||
            !identicalSummary(p.weightedIpc, q.weightedIpc) ||
            !identicalSummary(p.weightedProgress, q.weightedProgress) ||
            !identicalSummary(p.powerW, q.powerW) ||
            !identicalSummary(p.freqHz, q.freqHz) ||
            !identicalSummary(p.ed2, q.ed2) ||
            !identicalSummary(p.weightedEd2, q.weightedEd2))
            return false;
    }
    return true;
}

/**
 * runBatch() with the VARSCHED_BENCH_COMPARE=1 guard: the batch is
 * re-run on one worker and the bench aborts unless the two results
 * are bit-identical.
 */
inline BatchResult
runBatch(const BatchConfig &batch, std::size_t numThreads,
         const std::vector<SystemConfig> &configs)
{
    BatchResult result = varsched::runBatch(batch, numThreads, configs);
    if (benchCompare()) {
        BatchConfig serial = batch;
        serial.workerThreads = 1;
        const BatchResult ref =
            varsched::runBatch(serial, numThreads, configs);
        if (!identicalBatchResult(result, ref)) {
            std::fprintf(stderr,
                         "parallel batch diverged from the serial path\n");
            std::abort();
        }
    }
    return result;
}

/**
 * Die-population fan-out (runDiePopulation) with the
 * VARSCHED_BENCH_COMPARE=1 guard: the lot is re-run on one worker and
 * the per-die results must compare equal element-for-element, or the
 * bench aborts — the fan-out must be bit-identical to the serial loop.
 */
template <typename Fn>
auto
runDies(const DieParams &params, const std::vector<std::uint64_t> &seeds,
        Fn &&perDie)
{
    auto run = runDiePopulation(params, seeds, perDie);
    if (benchCompare()) {
        const auto ref = runDiePopulation(params, seeds, perDie, 1);
        if (run.results != ref.results) {
            std::fprintf(stderr,
                         "die-population fan-out diverged from the "
                         "serial loop\n");
            std::abort();
        }
    }
    return run.results;
}

} // namespace varsched::bench

#endif // VARSCHED_BENCH_COMMON_HH
