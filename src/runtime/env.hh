/**
 * @file
 * The environment-knob parsers: VARSCHED_THREADS, VARSCHED_DIES,
 * VARSCHED_TRIALS, VARSCHED_TRACE_BUFFER and the other size-valued
 * overrides read through envSize(); on/off knobs read through
 * envFlag(); the VARSCHED_BENCH_COMPARE guards read benchCompare().
 */

#ifndef VARSCHED_RUNTIME_ENV_HH
#define VARSCHED_RUNTIME_ENV_HH

#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <cstring>

namespace varsched
{

/**
 * Parse @p text as a positive decimal size. Only digits are accepted:
 * a null or empty string, a sign, whitespace, trailing characters
 * ("4x"), zero and values that overflow size_t all yield @p fallback.
 */
inline std::size_t
parseSize(const char *text, std::size_t fallback)
{
    if (text == nullptr)
        return fallback;
    const char *end = text + std::strlen(text);
    std::size_t value = 0;
    const auto [stop, error] = std::from_chars(text, end, value);
    return error == std::errc() && stop == end && value > 0 ? value
                                                            : fallback;
}

/** The positive size in environment variable @p name, parsed by
 *  parseSize(); unset or malformed yields @p fallback. */
inline std::size_t
envSize(const char *name, std::size_t fallback)
{
    return parseSize(std::getenv(name), fallback);
}

/**
 * Read a boolean environment override: unset (or empty) yields
 * @p fallback, "0" yields false, anything else true. envSize cannot
 * express "explicitly off" — it folds 0 back into the fallback.
 */
inline bool
envFlag(const char *name, bool fallback)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return fallback;
    return !(value[0] == '0' && value[1] == '\0');
}

/**
 * Whether VARSCHED_BENCH_COMPARE turns on the self-checking re-runs:
 * the benches' parallel-vs-serial bit-identity guards and
 * SystemSimulator::run's sampled-vs-exact guard. On when the value
 * parses (parseSize) to 1, so "1" and "01" both enable every guard;
 * unset, "0" or anything else leaves them all off.
 */
inline bool
benchCompare()
{
    return envSize("VARSCHED_BENCH_COMPARE", 0) == 1;
}

} // namespace varsched

#endif // VARSCHED_RUNTIME_ENV_HH
