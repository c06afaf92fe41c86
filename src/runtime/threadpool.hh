/**
 * @file
 * parallelFor: the batch layer's one parallel primitive.
 *
 * The paper's evaluation protocol is embarrassingly parallel — 200
 * manufactured dies x 20 workload trials, every tuple independent by
 * construction — so the batch layer only ever needs "run fn(i) for
 * every i on W threads". Determinism is the caller's job (per-index
 * seed derivation + ordered reduction); parallelFor promises nothing
 * about order beyond running every index exactly once.
 */

#ifndef VARSCHED_RUNTIME_THREADPOOL_HH
#define VARSCHED_RUNTIME_THREADPOOL_HH

#include <cstddef>
#include <functional>

namespace varsched
{

/**
 * Worker-thread count the experiment layer should use: the
 * VARSCHED_THREADS environment override when it is a positive size
 * (see parseSize()), otherwise hardware concurrency (at least 1).
 */
std::size_t configuredThreads();

/**
 * Run fn(0) .. fn(count-1) on min(workers, count) new threads (at
 * least one) and return once every index has run.
 *
 * Every thread claims the next index from one shared counter until
 * the counter passes count, so a thread that finishes a cheap item
 * simply claims another and uneven item costs balance. If any
 * invocation throws, every other index still runs, and the first
 * exception (by completion order) is rethrown after the threads are
 * joined. A body may itself call parallelFor.
 */
void parallelFor(std::size_t workers, std::size_t count,
                 const std::function<void(std::size_t)> &fn);

} // namespace varsched

#endif // VARSCHED_RUNTIME_THREADPOOL_HH
