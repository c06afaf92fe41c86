/**
 * @file
 * Process-wide metrics registry of named event counters.
 *
 * A Counter is a monotonically increasing uint64 (pool tasks, accepts,
 * settle rounds, ...), safe for concurrent recording on the hot path
 * (one relaxed atomic add; no lock after the handle is looked up).
 * Handles returned by Registry::counter are stable for the registry's
 * lifetime; hot paths look a handle up once (typically via a
 * function-local static reference) and then touch only the atomic.
 * Readers take before/after deltas of `Registry::global()`'s counters;
 * wall time is measured by the tracer's spans, not here.
 */

#ifndef VARSCHED_RUNTIME_METRICS_HH
#define VARSCHED_RUNTIME_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace varsched::metrics
{

/** Monotonic event counter. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * Named counter registry. Lookups take a mutex; returned references
 * are stable until the registry is destroyed.
 */
class Registry
{
  public:
    Counter &counter(const std::string &name);

    /** The process-wide registry the library's instruments count in. */
    static Registry &global();

  private:
    std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
};

} // namespace varsched::metrics

#endif // VARSCHED_RUNTIME_METRICS_HH
