/**
 * @file
 * Shared helpers for the bench binaries that regenerate the paper's
 * tables and figures. Each binary prints the same rows/series the
 * paper reports, normalised the same way, so output can be compared
 * against the figures directly. Batch sizes honour VARSCHED_DIES /
 * VARSCHED_TRIALS; the batch runner's worker count honours
 * VARSCHED_THREADS (default: hardware concurrency).
 *
 * Benches call varsched::runBatch and runDiePopulation directly; the
 * BatchDeterminism and DiePopulation tests check both bit-identical
 * across worker counts, and the SamplingGuard tests hold the
 * phase-sampled runs of Fig 13 and the long-horizon bench to their
 * error budget against the exact engine. Benches measure no time:
 * performance is recorded by the benchmark/ program, and the
 * per-phase split of the tick loop comes from the tracer's spans
 * (VARSCHED_TRACE).
 */

#ifndef VARSCHED_BENCH_COMMON_HH
#define VARSCHED_BENCH_COMMON_HH

#include <cstdio>
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

} // namespace varsched::bench

#endif // VARSCHED_BENCH_COMMON_HH
