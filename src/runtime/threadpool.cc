#include "runtime/threadpool.hh"

#include "runtime/env.hh"
#include "runtime/metrics.hh"
#include "runtime/trace.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
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
    metrics::Counter &steal;
    metrics::Counter &busyNs;

    static PoolMetrics &
    get()
    {
        static PoolMetrics m{
            metrics::Registry::global().counter("pool.pop_own"),
            metrics::Registry::global().counter("pool.steal"),
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

/** The indices dealt to one worker. */
struct Lane
{
    std::mutex mutex;
    std::deque<std::size_t> indices;
};

/** Everything one parallelFor call shares with its workers. */
struct Deal
{
    Deal(const std::function<void(std::size_t)> &body, std::size_t n,
         std::size_t workers)
        : fn(body), count(n), lanes(workers)
    {
    }

    /** Hand index i to lane i mod W, waking idle workers as it goes. */
    void
    dealAll()
    {
        for (std::size_t i = 0; i < count; ++i) {
            Lane &lane = lanes[i % lanes.size()];
            {
                std::lock_guard<std::mutex> lock(lane.mutex);
                lane.indices.push_back(i);
            }
            dealt.fetch_add(1);
            dealt.notify_all();
        }
    }

    /** Stop dealing: workers run what is already dealt, then exit. */
    void
    close()
    {
        dealt.store(count);
        dealt.notify_all();
    }

    /** Own lane newest first, then the others' oldest first. */
    bool
    take(std::size_t self, std::size_t &index)
    {
        {
            Lane &own = lanes[self];
            std::lock_guard<std::mutex> lock(own.mutex);
            if (!own.indices.empty()) {
                index = own.indices.back();
                own.indices.pop_back();
                PoolMetrics::get().popOwn.add();
                return true;
            }
        }
        for (std::size_t offset = 1; offset < lanes.size(); ++offset) {
            Lane &victim = lanes[(self + offset) % lanes.size()];
            std::lock_guard<std::mutex> lock(victim.mutex);
            if (!victim.indices.empty()) {
                index = victim.indices.front();
                victim.indices.pop_front();
                PoolMetrics::get().steal.add();
                return true;
            }
        }
        return false;
    }

    void
    work(std::size_t self)
    {
        trace::setThreadName(workerName(self));
        for (;;) {
            // Read before the scan: lanes only shrink once every index
            // is dealt, so an empty scan after that means none is left.
            const std::size_t seen = dealt.load();
            std::size_t index = 0;
            if (!take(self, index)) {
                if (seen == count)
                    return;
                dealt.wait(seen);
                continue;
            }
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
    }

    const std::function<void(std::size_t)> &fn;
    const std::size_t count;
    std::vector<Lane> lanes;
    /** Indices dealt so far; reaches count when dealing ends. */
    std::atomic<std::size_t> dealt{0};
    std::mutex errorMutex;
    std::exception_ptr error;
};

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
    Deal deal(fn, count, std::clamp<std::size_t>(workers, 1, count));
    std::vector<std::thread> threads;
    const auto joinAll = [&threads]() {
        for (std::thread &thread : threads)
            thread.join();
    };
    try {
        threads.reserve(deal.lanes.size());
        for (std::size_t w = 0; w < deal.lanes.size(); ++w)
            threads.emplace_back([&deal, w]() { deal.work(w); });
        deal.dealAll();
    } catch (...) {
        // A thread failed to start: the ones that did finish what was
        // dealt and are joined before the error propagates.
        deal.close();
        joinAll();
        throw;
    }
    joinAll();
    if (deal.error)
        std::rethrow_exception(deal.error);
}

} // namespace varsched
