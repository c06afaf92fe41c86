/**
 * @file
 * Always-on span/instant-event tracer with Perfetto-loadable export.
 *
 * Every performance-critical machine in this repo (the tick loop,
 * parallelFor's workers, the sweep orchestrator) is instrumented with
 * TRACE_SCOPE / TRACE_INSTANT sites; TRACE_COUNTER draws a counter
 * track. The sites are compiled in unconditionally; what makes that
 * affordable is the overhead contract:
 *
 *  - DISABLED (the default): a trace site is one relaxed atomic load
 *    and a predictable branch — no clock read, no allocation, no
 *    store. The TraceOverheadGuard test measures this cost and
 *    asserts it is invisible (<1%) against the tick loop.
 *  - ENABLED (VARSCHED_TRACE=<path> or traceStart()): each event is
 *    two steady-clock reads plus a copy into the recording thread's
 *    own ring buffer (a thread-local pointer; the per-buffer mutex is
 *    only ever contended by a concurrent flush). Buffers are bounded:
 *    when a thread out-runs its ring the oldest events are dropped
 *    and counted, never reallocated in the hot path.
 *
 * Event names must be string literals (the tracer stores the pointer,
 * not the bytes). Export is the Chrome trace-event JSON array format,
 * one event per line — loadable in Perfetto / chrome://tracing and
 * line-parseable by tools/trace_summarize.
 */

#ifndef VARSCHED_RUNTIME_TRACE_HH
#define VARSCHED_RUNTIME_TRACE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace varsched::trace
{

/** One recorded event (span, instant, or counter sample). */
struct Event
{
    const char *name = nullptr;    ///< Static string (not owned).
    const char *argName = nullptr; ///< Optional payload key, static.
    double argValue = 0.0;         ///< Payload value (with argName).
    std::uint64_t tsNs = 0;        ///< Start, ns since traceStart().
    std::uint64_t durNs = 0;       ///< Span duration; 0 otherwise.
    char phase = 'i';              ///< 'X' span, 'i' instant, 'C' counter.
};

/** Recording toggle; read relaxed on every trace site. */
extern std::atomic<bool> g_enabled;

/** True when tracing is recording (the disabled-path branch). */
inline bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

/** Monotonic ns on the trace clock (valid while tracing is on). */
std::uint64_t nowNs();

/**
 * Start recording to an in-memory ring per thread; stopAndFlush (or
 * process exit, when armed via env) writes @p path. @p ringCapacity
 * caps events buffered per thread (0 = default 64Ki; the oldest
 * events are dropped on overflow). Restarting resets all buffers.
 */
void traceStart(const std::string &path, std::size_t ringCapacity = 0);

/**
 * Stop recording and write the Chrome trace JSON to the path given to
 * traceStart(). Returns false when nothing was recording or the file
 * could not be written. Safe to call with worker threads still alive:
 * they fall back to the disabled path mid-flush.
 */
bool traceStopAndFlush();

/**
 * Arm tracing from the VARSCHED_TRACE environment variable (called
 * once automatically at static-init time from trace.cc, so every
 * binary linking varsched_runtime honours the variable). A flush is
 * registered via atexit.
 */
void traceInitFromEnv();

/** Recording statistics (events kept / dropped across all threads). */
struct TraceStats
{
    std::uint64_t recorded = 0; ///< Events currently buffered.
    std::uint64_t dropped = 0;  ///< Events lost to ring wraparound.
};
TraceStats traceStats();

/**
 * Name the calling thread in the exported trace (thread_name metadata
 * event). Pointer must be static or outlive the flush.
 */
void setThreadName(const char *name);

/** Record one event (enabled() must be checked by the caller). */
void record(const Event &event);

/**
 * Record a complete span from explicit trace-clock endpoints — for
 * spans whose begin and end are observed in different stack frames
 * (e.g. a worker process's lifetime in the orchestrator's poll loop).
 */
inline void
recordSpan(const char *name, std::uint64_t startNs, std::uint64_t endNs)
{
    Event e;
    e.name = name;
    e.phase = 'X';
    e.tsNs = startNs;
    e.durNs = endNs >= startNs ? endNs - startNs : 0;
    record(e);
}

/** Record an instant event, optionally with one numeric payload. */
inline void
instant(const char *name, const char *argName = nullptr,
        double argValue = 0.0)
{
    Event e;
    e.name = name;
    e.phase = 'i';
    e.tsNs = nowNs();
    e.argName = argName;
    e.argValue = argValue;
    record(e);
}

/** Record a counter sample (rendered as a track in Perfetto). */
inline void
counter(const char *name, double value)
{
    Event e;
    e.name = name;
    e.phase = 'C';
    e.tsNs = nowNs();
    e.argName = "value";
    e.argValue = value;
    record(e);
}

/**
 * RAII span. Construction latches enabled() once; a span that starts
 * while tracing is on is recorded even if tracing stops before the
 * scope closes (the flush may already have run, in which case the
 * record lands in a dead buffer and is discarded).
 */
class Scope
{
  public:
    explicit Scope(const char *name)
        : name_(name), active_(enabled()),
          startNs_(active_ ? nowNs() : 0)
    {
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    ~Scope()
    {
        if (!active_)
            return;
        Event e;
        e.name = name_;
        e.phase = 'X';
        e.tsNs = startNs_;
        e.durNs = nowNs() - startNs_;
        record(e);
    }

  private:
    const char *name_;
    bool active_;
    std::uint64_t startNs_;
};

} // namespace varsched::trace

#define VARSCHED_TRACE_CAT2(a, b) a##b
#define VARSCHED_TRACE_CAT(a, b) VARSCHED_TRACE_CAT2(a, b)

/** Span covering the rest of the enclosing scope. */
#define TRACE_SCOPE(name)                                              \
    ::varsched::trace::Scope VARSCHED_TRACE_CAT(traceScope_,           \
                                                __LINE__)(name)

/** Zero-duration event; the 3-arg form attaches one numeric payload. */
#define TRACE_INSTANT(...)                                             \
    do {                                                               \
        if (::varsched::trace::enabled())                              \
            ::varsched::trace::instant(__VA_ARGS__);                   \
    } while (0)

/** Counter-track sample. */
#define TRACE_COUNTER(name, value)                                     \
    do {                                                               \
        if (::varsched::trace::enabled())                              \
            ::varsched::trace::counter((name), (value));               \
    } while (0)

#endif // VARSCHED_RUNTIME_TRACE_HH
