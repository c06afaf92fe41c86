#include "runtime/threadpool.hh"

#include "runtime/env.hh"
#include "runtime/metrics.hh"
#include "runtime/trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace varsched
{

namespace
{

/** Scheduling metrics (process registry handles, looked up once;
 *  recording is a relaxed atomic add). */
struct PoolMetrics
{
    metrics::Counter &popOwn;
    metrics::Counter &busyNs;

    static PoolMetrics &
    get()
    {
        static PoolMetrics m{
            metrics::Registry::global().counter("pool.pop_own"),
            metrics::Registry::global().counter("pool.busy_ns"),
        };
        return m;
    }
};

/** Static "pool-worker-N" strings (the tracer stores the pointer). */
const char *
workerName(std::size_t index)
{
    constexpr std::size_t kNames = 64;
    static char names[kNames][20];
    static std::once_flag flags[kNames];
    if (index >= kNames)
        return "pool-worker";
    std::call_once(flags[index], [index]() {
        std::snprintf(names[index], sizeof names[index],
                      "pool-worker-%zu", index);
    });
    return names[index];
}

} // namespace

std::size_t
configuredThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return envSize("VARSCHED_THREADS", hw > 0 ? hw : 1);
}

void
parallelFor(std::size_t workers, std::size_t count,
            const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    std::atomic<std::size_t> next{0};
    std::mutex errorMutex;
    std::exception_ptr error;
    const auto work = [&](std::size_t self) {
        trace::setThreadName(workerName(self));
        for (std::size_t index = next.fetch_add(1); index < count;
             index = next.fetch_add(1)) {
            PoolMetrics::get().popOwn.add();
            const auto busyStart = std::chrono::steady_clock::now();
            try {
                TRACE_SCOPE("pool.task");
                fn(index);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!error)
                    error = std::current_exception();
            }
            PoolMetrics::get().busyNs.add(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - busyStart)
                    .count()));
        }
    };

    std::vector<std::thread> threads;
    const auto joinAll = [&threads]() {
        for (std::thread &thread : threads)
            thread.join();
    };
    try {
        const std::size_t n = std::clamp<std::size_t>(workers, 1, count);
        threads.reserve(n);
        for (std::size_t w = 0; w < n; ++w)
            threads.emplace_back(work, w);
    } catch (...) {
        // A thread failed to start: the ones that did claim every
        // index and are joined before the error propagates.
        joinAll();
        throw;
    }
    joinAll();
    if (error)
        std::rethrow_exception(error);
}

} // namespace varsched
