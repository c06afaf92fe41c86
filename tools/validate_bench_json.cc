/**
 * @file
 * Schema validator for the per-bench perf-trajectory record the bench
 * binaries emit (bench_smoke.json; see bench/common.hh). Used by the
 * bench_smoke CTest label: after every bench has run at tiny batch
 * sizes, this tool checks the merged file so a malformed emitter
 * fails CI instead of silently corrupting the perf history.
 *
 * Expected shape: a JSON array, one object per line, each with
 *   bench          non-empty string
 *   threads        integer >= 1
 *   parallel_s     number >= 0
 *   serial_s       number >= 0, or null when not measured
 *   speedup        number > 0, or null when not measured
 *   mfg_s          number >= 0 (die-manufacture seconds), or null;
 *                  must be non-null for the die-population benches
 *                  (they route their lots through runDies())
 *   exact_ticks    integer >= 0 (ticks settled exactly)
 *   sampled_ticks  integer >= 0 (ticks extrapolated by the
 *                  phase-sampled engine; 0 when sampling is off)
 *   est_err        number in [0, 1] (worst run-level estimated
 *                  relative error introduced by extrapolation)
 *   metrics        object (PR 9+): counters and gauges as finite
 *                  non-negative numbers keyed by name, histograms as
 *                  nested {"count", "sum", "min", "max", "p50",
 *                  "p90", "p99", "buckets": [[upper_bound, count],
 *                  ...]} objects. Checked: bucket upper bounds
 *                  strictly increasing, bucket counts summing to
 *                  "count", percentile keys present (and ordered)
 *                  whenever count > 0, NaN/Inf/negative rejected
 *                  everywhere, and a "peak_rss_kb" gauge present.
 *
 * Usage: validate_bench_json PATH. Exit 0 when every entry conforms
 * (and at least one exists).
 */

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace
{

/** Value of "key" in a one-line JSON object; empty when absent. */
std::string
rawValue(const std::string &object, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = object.find(needle);
    if (at == std::string::npos)
        return "";
    std::size_t from = at + needle.size();
    while (from < object.size() && std::isspace(
               static_cast<unsigned char>(object[from])))
        ++from;
    std::size_t to = from;
    if (to < object.size() && object[to] == '"') {
        to = object.find('"', to + 1);
        if (to == std::string::npos)
            return "";
        ++to;
    } else {
        while (to < object.size() && object[to] != ',' &&
               object[to] != '}')
            ++to;
        while (to > from && std::isspace(
                   static_cast<unsigned char>(object[to - 1])))
            --to;
    }
    return object.substr(from, to - from);
}

/**
 * Raw text of the JSON object (or array) stored under @p key,
 * including its braces. Unlike rawValue this brace-matches (string-
 * aware), so it handles nested values like the `metrics` object.
 */
std::string
rawObject(const std::string &object, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = object.find(needle);
    if (at == std::string::npos)
        return "";
    std::size_t from = at + needle.size();
    while (from < object.size() &&
           std::isspace(static_cast<unsigned char>(object[from])))
        ++from;
    if (from >= object.size() ||
        (object[from] != '{' && object[from] != '['))
        return "";
    int depth = 0;
    bool inString = false, escaped = false;
    for (std::size_t i = from; i < object.size(); ++i) {
        const char c = object[i];
        if (inString) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                inString = false;
            continue;
        }
        if (c == '"')
            inString = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            if (--depth == 0)
                return object.substr(from, i - from + 1);
        }
    }
    return "";
}

/**
 * Top-level key/raw-value pairs of a one-line JSON object. Values
 * keep their raw text (nested objects/arrays included). Returns
 * false on structural garbage.
 */
bool
splitObject(const std::string &object,
            std::vector<std::pair<std::string, std::string>> &out)
{
    out.clear();
    if (object.size() < 2 || object.front() != '{' ||
        object.back() != '}')
        return false;
    std::size_t i = 1;
    const std::size_t end = object.size() - 1;
    for (;;) {
        while (i < end &&
               (std::isspace(static_cast<unsigned char>(object[i])) ||
                object[i] == ','))
            ++i;
        if (i >= end)
            return true;
        if (object[i] != '"')
            return false;
        const std::size_t keyEnd = object.find('"', i + 1);
        if (keyEnd == std::string::npos || keyEnd >= end)
            return false;
        const std::string key = object.substr(i + 1, keyEnd - i - 1);
        i = keyEnd + 1;
        while (i < end &&
               std::isspace(static_cast<unsigned char>(object[i])))
            ++i;
        if (i >= end || object[i] != ':')
            return false;
        ++i;
        while (i < end &&
               std::isspace(static_cast<unsigned char>(object[i])))
            ++i;
        const std::size_t valueBegin = i;
        if (i < end && (object[i] == '{' || object[i] == '[')) {
            int depth = 0;
            bool inString = false, escaped = false;
            for (; i < end; ++i) {
                const char c = object[i];
                if (inString) {
                    if (escaped)
                        escaped = false;
                    else if (c == '\\')
                        escaped = true;
                    else if (c == '"')
                        inString = false;
                    continue;
                }
                if (c == '"')
                    inString = true;
                else if (c == '{' || c == '[')
                    ++depth;
                else if (c == '}' || c == ']') {
                    if (--depth == 0) {
                        ++i;
                        break;
                    }
                }
            }
            if (depth != 0)
                return false;
        } else if (i < end && object[i] == '"') {
            ++i;
            bool escaped = false;
            while (i < end) {
                if (escaped)
                    escaped = false;
                else if (object[i] == '\\')
                    escaped = true;
                else if (object[i] == '"') {
                    ++i;
                    break;
                }
                ++i;
            }
        } else {
            while (i < end && object[i] != ',')
                ++i;
        }
        std::string value = object.substr(valueBegin, i - valueBegin);
        while (!value.empty() &&
               std::isspace(static_cast<unsigned char>(value.back())))
            value.pop_back();
        out.emplace_back(key, value);
    }
}

/** Parse a finite non-negative number; false on NaN/Inf/negative. */
bool
finiteNonNegative(const std::string &s, double &v)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    v = std::strtod(s.c_str(), &end);
    if (end == nullptr || *end != '\0')
        return false;
    return std::isfinite(v) && v >= 0.0;
}

bool
isNumber(const std::string &s, bool allowNull, bool requireNonNegative)
{
    if (allowNull && s == "null")
        return true;
    if (s.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == nullptr || *end != '\0')
        return false;
    return !requireNonNegative || v >= 0.0;
}

bool
fail(std::size_t entry, const char *what)
{
    std::fprintf(stderr, "bench JSON entry %zu: %s\n", entry, what);
    return false;
}

bool
failMetric(std::size_t entry, const std::string &name, const char *what)
{
    std::fprintf(stderr, "bench JSON entry %zu: metric \"%s\": %s\n",
                 entry, name.c_str(), what);
    return false;
}

/**
 * One serialized metrics::Histogram: {"count", and when count > 0
 * also "sum"/"min"/"max"/"p50"/"p90"/"p99" plus a "buckets" array of
 * [upper_bound, count] pairs with strictly increasing bounds whose
 * counts sum to "count".
 */
bool
validateHistogram(std::size_t entry, const std::string &name,
                  const std::string &raw)
{
    std::vector<std::pair<std::string, std::string>> fields;
    if (!splitObject(raw, fields))
        return failMetric(entry, name, "malformed histogram object");

    std::string countRaw, bucketsRaw;
    double scalars[6];
    bool haveScalar[6] = {false, false, false, false, false, false};
    static const char *scalarKeys[6] = {"sum", "min", "max",
                                        "p50", "p90", "p99"};
    for (const auto &field : fields) {
        if (field.first == "count") {
            countRaw = field.second;
            continue;
        }
        if (field.first == "buckets") {
            bucketsRaw = field.second;
            continue;
        }
        for (int k = 0; k < 6; ++k) {
            if (field.first == scalarKeys[k]) {
                if (!finiteNonNegative(field.second, scalars[k]))
                    return failMetric(
                        entry, name,
                        "histogram field must be finite and >= 0");
                haveScalar[k] = true;
            }
        }
    }

    char *end = nullptr;
    const long long count = std::strtoll(countRaw.c_str(), &end, 10);
    if (countRaw.empty() || end == nullptr || *end != '\0' || count < 0)
        return failMetric(entry, name,
                          "\"count\" must be an integer >= 0");
    if (count == 0)
        return true; // Empty histograms omit the distribution fields.

    for (int k = 0; k < 6; ++k) {
        if (!haveScalar[k])
            return failMetric(entry, name,
                              "non-empty histogram missing a required "
                              "field (sum/min/max/p50/p90/p99)");
    }
    if (scalars[1] > scalars[2]) // min > max
        return failMetric(entry, name, "min exceeds max");
    if (scalars[3] > scalars[4] || scalars[4] > scalars[5])
        return failMetric(entry, name,
                          "percentiles must satisfy p50 <= p90 <= p99");

    if (bucketsRaw.size() < 2 || bucketsRaw.front() != '[' ||
        bucketsRaw.back() != ']')
        return failMetric(entry, name,
                          "non-empty histogram missing \"buckets\"");
    // Walk the [[ub, c], ...] pairs with a flat scan: the array holds
    // only numbers and punctuation, so no string-awareness is needed.
    double prevBound = -1.0;
    long long bucketTotal = 0;
    std::size_t i = 1;
    const std::size_t arrayEnd = bucketsRaw.size() - 1;
    while (i < arrayEnd) {
        while (i < arrayEnd &&
               (bucketsRaw[i] == ',' ||
                std::isspace(static_cast<unsigned char>(bucketsRaw[i]))))
            ++i;
        if (i >= arrayEnd)
            break;
        if (bucketsRaw[i] != '[')
            return failMetric(entry, name, "malformed bucket pair");
        const std::size_t close = bucketsRaw.find(']', i);
        if (close == std::string::npos || close > arrayEnd)
            return failMetric(entry, name, "malformed bucket pair");
        const std::string pair = bucketsRaw.substr(i + 1, close - i - 1);
        const std::size_t comma = pair.find(',');
        if (comma == std::string::npos)
            return failMetric(entry, name, "malformed bucket pair");
        double bound = 0.0;
        if (!finiteNonNegative(pair.substr(0, comma), bound))
            return failMetric(entry, name,
                              "bucket bound must be finite and >= 0");
        char *tail = nullptr;
        const std::string countStr = pair.substr(comma + 1);
        const long long bucketCount =
            std::strtoll(countStr.c_str(), &tail, 10);
        if (countStr.empty() || tail == nullptr || *tail != '\0' ||
            bucketCount <= 0)
            return failMetric(entry, name,
                              "bucket count must be an integer >= 1");
        if (bound <= prevBound)
            return failMetric(entry, name,
                              "bucket bounds must strictly increase");
        prevBound = bound;
        bucketTotal += bucketCount;
        i = close + 1;
    }
    if (bucketTotal != count)
        return failMetric(entry, name,
                          "bucket counts do not sum to \"count\"");
    return true;
}

/**
 * The per-entry "metrics" object: every scalar metric finite and
 * non-negative, every nested object a valid histogram, and the
 * "peak_rss_kb" gauge present.
 */
bool
validateMetrics(std::size_t index, const std::string &object)
{
    const std::string raw = rawObject(object, "metrics");
    if (raw.empty() || raw.front() != '{')
        return fail(index, "missing or malformed \"metrics\" object");
    std::vector<std::pair<std::string, std::string>> fields;
    if (!splitObject(raw, fields))
        return fail(index, "\"metrics\" object is structurally invalid");
    bool sawPeakRss = false;
    for (const auto &field : fields) {
        if (field.second.empty())
            return failMetric(index, field.first, "empty value");
        if (field.second.front() == '{') {
            if (!validateHistogram(index, field.first, field.second))
                return false;
            continue;
        }
        double v = 0.0;
        if (!finiteNonNegative(field.second, v))
            return failMetric(index, field.first,
                              "must be a finite number >= 0");
        if (field.first == "peak_rss_kb")
            sawPeakRss = v > 0.0;
    }
    if (!sawPeakRss)
        return fail(index,
                    "\"metrics\" must carry a positive \"peak_rss_kb\"");
    return true;
}

bool
validateEntry(std::size_t index, const std::string &object,
              std::set<std::string> &seen)
{
    const std::string bench = rawValue(object, "bench");
    if (bench.size() < 3 || bench.front() != '"' || bench.back() != '"')
        return fail(index, "missing or malformed \"bench\"");
    if (!seen.insert(bench).second)
        return fail(index, "duplicate bench name");

    const std::string threads = rawValue(object, "threads");
    char *end = nullptr;
    const long t = std::strtol(threads.c_str(), &end, 10);
    if (threads.empty() || end == nullptr || *end != '\0' || t < 1)
        return fail(index, "\"threads\" must be an integer >= 1");

    if (!isNumber(rawValue(object, "parallel_s"), false, true))
        return fail(index, "\"parallel_s\" must be a number >= 0");
    if (!isNumber(rawValue(object, "serial_s"), true, true))
        return fail(index, "\"serial_s\" must be a number >= 0 or null");
    if (!isNumber(rawValue(object, "speedup"), true, true))
        return fail(index, "\"speedup\" must be a number or null");

    // serial_s and speedup must be measured together.
    const bool haveSerial = rawValue(object, "serial_s") != "null";
    const bool haveSpeedup = rawValue(object, "speedup") != "null";
    if (haveSerial != haveSpeedup)
        return fail(index, "serial_s and speedup must both be set "
                           "or both null");

    // Die-manufacture phase (PR 5+ entries): null for benches that
    // never run a die population, required for the four that do.
    if (!isNumber(rawValue(object, "mfg_s"), true, true))
        return fail(index, "\"mfg_s\" must be a number >= 0 or null");
    static const std::set<std::string> diePopulationBenches = {
        "\"bench_ext_yield\"",
        "\"bench_fig04_variation\"",
        "\"bench_fig05_sigma_sweep\"",
        "\"bench_ext_abb\"",
    };
    if (diePopulationBenches.count(bench) != 0 &&
        rawValue(object, "mfg_s") == "null")
        return fail(index, "\"mfg_s\" must be non-null for "
                           "die-population benches");

    // Phase-sampling telemetry (PR 8+ entries).
    const auto isCount = [&](const char *key) {
        const std::string v = rawValue(object, key);
        char *tail = nullptr;
        const long long n = std::strtoll(v.c_str(), &tail, 10);
        return !v.empty() && tail != nullptr && *tail == '\0' && n >= 0;
    };
    if (!isCount("exact_ticks"))
        return fail(index, "\"exact_ticks\" must be an integer >= 0");
    if (!isCount("sampled_ticks"))
        return fail(index, "\"sampled_ticks\" must be an integer >= 0");
    if (!isNumber(rawValue(object, "est_err"), false, true))
        return fail(index, "\"est_err\" must be a number >= 0");
    if (std::strtod(rawValue(object, "est_err").c_str(), nullptr) > 1.0)
        return fail(index, "\"est_err\" must be <= 1");

    // Observability payload (PR 9+ entries).
    return validateMetrics(index, object);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: validate_bench_json PATH\n");
        return 2;
    }
    const char *path = argv[1];
    std::FILE *in = std::fopen(path, "r");
    if (in == nullptr) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return 1;
    }

    // Whole-file read: metrics-bearing entries are one long line each,
    // far past any fixed fgets buffer.
    std::string text;
    {
        char chunk[1 << 16];
        std::size_t got;
        while ((got = std::fread(chunk, 1, sizeof chunk, in)) > 0)
            text.append(chunk, got);
    }
    std::fclose(in);

    std::vector<std::string> objects;
    bool sawOpen = false, sawClose = false;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        std::string s = text.substr(pos, nl - pos);
        pos = nl + 1;
        while (!s.empty() && std::isspace(
                   static_cast<unsigned char>(s.back())))
            s.pop_back();
        std::size_t from = 0;
        while (from < s.size() && std::isspace(
                   static_cast<unsigned char>(s[from])))
            ++from;
        s = s.substr(from);
        if (s.empty())
            continue;
        if (s == "[") {
            sawOpen = true;
            continue;
        }
        if (s == "]") {
            sawClose = true;
            continue;
        }
        if (!s.empty() && s.back() == ',')
            s.pop_back();
        if (s.empty() || s.front() != '{' || s.back() != '}') {
            std::fprintf(stderr, "unparseable line: %s\n", s.c_str());
            return 1;
        }
        objects.push_back(s);
    }

    if (!sawOpen || !sawClose) {
        std::fprintf(stderr, "%s is not a JSON array\n", path);
        return 1;
    }
    if (objects.empty()) {
        std::fprintf(stderr, "%s has no bench entries\n", path);
        return 1;
    }

    std::set<std::string> seen;
    for (std::size_t i = 0; i < objects.size(); ++i) {
        if (!validateEntry(i, objects[i], seen))
            return 1;
    }
    std::printf("%s: %zu bench entr%s valid\n", path, objects.size(),
                objects.size() == 1 ? "y" : "ies");
    return 0;
}
