/**
 * @file
 * The one parser for numeric environment knobs: VARSCHED_THREADS,
 * VARSCHED_DIES, VARSCHED_TRIALS, VARSCHED_TRACE_BUFFER and the other
 * size-valued overrides all read through envSize().
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

} // namespace varsched

#endif // VARSCHED_RUNTIME_ENV_HH
