#include "runtime/trace.hh"

#include "runtime/env.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include <unistd.h>

namespace varsched::trace
{

std::atomic<bool> g_enabled{false};

namespace
{

constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 16;

/**
 * Bounded per-thread event ring. The owning thread appends under the
 * buffer mutex (uncontended except during a concurrent flush, so the
 * lock is a cheap CAS in the steady state); a flush walks the registry
 * and drains every ring oldest-first.
 */
struct ThreadBuffer
{
    std::mutex mutex;
    std::vector<Event> ring;
    std::size_t capacity = kDefaultRingCapacity;
    std::size_t head = 0;      ///< Next write slot once full.
    bool wrapped = false;      ///< Ring has overwritten old events.
    std::uint64_t dropped = 0; ///< Events overwritten so far.
    int tid = 0;
    const char *threadName = nullptr;
    std::uint64_t generation = 0;
};

/**
 * Global tracer state. Buffers are owned by the registry as
 * shared_ptrs and co-owned by their thread's thread_local slot, so
 * neither a thread exiting before the flush nor a flush racing a
 * still-recording thread can free memory out from under the other.
 */
struct TracerState
{
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    std::string outputPath;
    std::size_t ringCapacity = kDefaultRingCapacity;
    std::uint64_t generation = 0;
    std::chrono::steady_clock::time_point epoch;
    int nextTid = 1;
};

TracerState &
state()
{
    static TracerState *s = new TracerState; // never destroyed: worker
    return *s; // threads may outlive static destruction order
}

thread_local std::shared_ptr<ThreadBuffer> tlBuffer;

/** The calling thread's buffer for the current recording session. */
ThreadBuffer *
myBuffer()
{
    TracerState &s = state();
    const std::uint64_t gen =
        s.generation; // benign race: re-checked under the lock
    if (tlBuffer != nullptr && tlBuffer->generation == gen)
        return tlBuffer.get();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!g_enabled.load(std::memory_order_relaxed))
        return nullptr;
    auto buffer = std::make_shared<ThreadBuffer>();
    buffer->capacity = s.ringCapacity;
    buffer->ring.reserve(std::min(s.ringCapacity, std::size_t{1024}));
    buffer->tid = s.nextTid++;
    buffer->generation = s.generation;
    s.buffers.push_back(buffer);
    tlBuffer = buffer;
    return tlBuffer.get();
}

/** ts/dur in microseconds with ns precision (trace-event format). */
void
appendMicros(std::string &out, std::uint64_t ns)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    out += buf;
}

bool
writeTraceFile(const std::string &path,
               std::vector<std::shared_ptr<ThreadBuffer>> &buffers)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "trace: cannot open %s\n", path.c_str());
        return false;
    }
    const int pid = static_cast<int>(::getpid());
    std::string text;
    text.reserve(std::size_t{1} << 20);
    text += "[\n";
    bool first = true;
    const auto emit = [&](const std::string &line) {
        if (!first)
            text += ",\n";
        text += line;
        first = false;
        if (text.size() > (std::size_t{1} << 20)) {
            std::fwrite(text.data(), 1, text.size(), out);
            text.clear();
        }
    };

    char line[512];
    for (const auto &buffer : buffers) {
        std::lock_guard<std::mutex> lock(buffer->mutex);
        if (buffer->threadName != nullptr) {
            std::snprintf(line, sizeof line,
                          "{\"ph\": \"M\", \"name\": \"thread_name\", "
                          "\"pid\": %d, \"tid\": %d, "
                          "\"args\": {\"name\": \"%s\"}}",
                          pid, buffer->tid, buffer->threadName);
            emit(line);
        }
        if (buffer->dropped > 0) {
            std::snprintf(
                line, sizeof line,
                "{\"ph\": \"i\", \"name\": \"trace.dropped\", "
                "\"ts\": 0.000, \"pid\": %d, \"tid\": %d, \"s\": "
                "\"t\", \"args\": {\"count\": %llu}}",
                pid, buffer->tid,
                static_cast<unsigned long long>(buffer->dropped));
            emit(line);
        }
        // Drain oldest-first: the ring's head is the oldest slot once
        // it has wrapped.
        const std::size_t n = buffer->ring.size();
        const std::size_t start = buffer->wrapped ? buffer->head : 0;
        for (std::size_t k = 0; k < n; ++k) {
            const Event &e = buffer->ring[(start + k) % n];
            std::string ev = "{\"name\": \"";
            ev += e.name;
            ev += "\", \"ph\": \"";
            ev += e.phase;
            ev += "\", \"ts\": ";
            appendMicros(ev, e.tsNs);
            if (e.phase == 'X') {
                ev += ", \"dur\": ";
                appendMicros(ev, e.durNs);
            }
            std::snprintf(line, sizeof line,
                          ", \"pid\": %d, \"tid\": %d", pid,
                          buffer->tid);
            ev += line;
            if (e.phase == 'i')
                ev += ", \"s\": \"t\""; // thread-scoped instant
            if (e.argName != nullptr) {
                std::snprintf(line, sizeof line,
                              ", \"args\": {\"%s\": %.17g}", e.argName,
                              e.argValue);
                ev += line;
            }
            ev += "}";
            emit(ev);
        }
    }
    text += "\n]\n";
    std::fwrite(text.data(), 1, text.size(), out);
    const bool ok = std::ferror(out) == 0;
    std::fclose(out);
    return ok;
}

} // namespace

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - state().epoch)
            .count());
}

void
traceStart(const std::string &path, std::size_t ringCapacity)
{
    TracerState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    s.outputPath = path;
    s.ringCapacity =
        ringCapacity > 0 ? ringCapacity : kDefaultRingCapacity;
    s.epoch = std::chrono::steady_clock::now();
    // Invalidate every thread's cached buffer; stale-generation
    // buffers stay alive through their thread_local shared_ptr but
    // are no longer written to or flushed.
    s.generation += 1;
    s.buffers.clear();
    s.nextTid = 1;
    g_enabled.store(true, std::memory_order_release);
}

bool
traceStopAndFlush()
{
    TracerState &s = state();
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    std::string path;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        if (!g_enabled.load(std::memory_order_relaxed))
            return false;
        g_enabled.store(false, std::memory_order_release);
        buffers.swap(s.buffers);
        path = s.outputPath;
        s.generation += 1;
    }
    if (path.empty())
        return false;
    return writeTraceFile(path, buffers);
}

void
traceInitFromEnv()
{
    static bool armed = false;
    if (armed)
        return;
    const char *path = std::getenv("VARSCHED_TRACE");
    if (path == nullptr || path[0] == '\0')
        return;
    armed = true;
    traceStart(path, envSize("VARSCHED_TRACE_BUFFER", 0));
    std::atexit([]() { traceStopAndFlush(); });
}

namespace
{

/**
 * Static-init hook: every binary linking varsched_runtime honours
 * VARSCHED_TRACE without per-binary wiring. Trace sites hit before
 * this initialiser runs simply see tracing disabled.
 */
struct EnvInit
{
    EnvInit() { traceInitFromEnv(); }
} envInit;

} // namespace

TraceStats
traceStats()
{
    TracerState &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    TraceStats stats;
    for (const auto &buffer : s.buffers) {
        std::lock_guard<std::mutex> bufLock(buffer->mutex);
        stats.recorded += buffer->ring.size();
        stats.dropped += buffer->dropped;
    }
    return stats;
}

void
setThreadName(const char *name)
{
    if (!enabled())
        return;
    ThreadBuffer *buffer = myBuffer();
    if (buffer == nullptr)
        return;
    std::lock_guard<std::mutex> lock(buffer->mutex);
    buffer->threadName = name;
}

void
record(const Event &event)
{
    if (!enabled())
        return; // raced a stop; drop
    ThreadBuffer *buffer = myBuffer();
    if (buffer == nullptr)
        return;
    std::lock_guard<std::mutex> lock(buffer->mutex);
    if (buffer->ring.size() < buffer->capacity) {
        buffer->ring.push_back(event);
        return;
    }
    // Ring full: overwrite the oldest event.
    buffer->ring[buffer->head] = event;
    buffer->head = (buffer->head + 1) % buffer->capacity;
    buffer->wrapped = true;
    buffer->dropped += 1;
}

} // namespace varsched::trace
