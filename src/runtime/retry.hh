/**
 * @file
 * Retry policy for the sweep orchestrator: capped backoff with
 * decorrelated jitter.
 *
 * A fleet-scale sweep retries crashed, hung, and corrupted tasks; if
 * every retry fires on the same schedule, the retries themselves
 * synchronise into load spikes (the thundering-herd failure mode).
 * The policy here is the standard fix: each delay is drawn uniformly
 * from [base, 3 * previous] ("decorrelated jitter"), capped, so the
 * delays grow roughly geometrically while concurrent retriers spread
 * out instead of marching in lockstep.
 *
 * Everything is a pure function of (policy, attempt, rng) — no
 * clocks, no sleeping — so the schedule is unit-testable and the
 * orchestrator's chaos runs replay bit-identically. The caller owns
 * the actual waiting.
 */

#ifndef VARSCHED_RUNTIME_RETRY_HH
#define VARSCHED_RUNTIME_RETRY_HH

#include <algorithm>
#include <cstddef>

#include "solver/rng.hh"

namespace varsched
{

/** Backoff schedule for re-running a failed or hung sweep task. */
struct RetryPolicy
{
    /** Total attempts allowed per task (first run included). */
    std::size_t maxAttempts = 4;
    /** Delay before the first retry, seconds. */
    double baseDelaySec = 0.25;
    /** Ceiling on any one delay, seconds. */
    double maxDelaySec = 8.0;

    /** True when a task that has run @p attempts times may run again. */
    bool
    shouldRetry(std::size_t attempts) const
    {
        return attempts < maxAttempts;
    }

    /**
     * Decorrelated-jitter delay: uniform in [base, 3 * prevDelay],
     * capped at maxDelaySec. Pass the previous return value back in
     * (or 0.0 before the first retry). Consumes exactly one draw from
     * @p rng, so a seeded stream replays the identical schedule.
     */
    double
    nextDelay(double prevDelaySec, Rng &rng) const
    {
        const double lo = baseDelaySec;
        const double hi =
            std::max(lo, 3.0 * std::max(prevDelaySec, lo / 3.0));
        return std::min(rng.uniform(lo, hi), maxDelaySec);
    }
};

} // namespace varsched

#endif // VARSCHED_RUNTIME_RETRY_HH
