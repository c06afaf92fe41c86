/**
 * @file
 * varsched_sweep — crash-safe parameter-grid sweep driver.
 *
 * Declarative grids over (sigma/mu, ABB, die lot) fanned across
 * worker *processes* by the runtime/orchestrator.hh SweepOrchestrator:
 * per-task journaled state under <out>/journal.jsonl (kill the
 * orchestrator at any instant and a re-run resumes exactly where it
 * stopped), per-task wall-clock timeouts with SIGTERM -> SIGKILL
 * escalation, capped-exponential/decorrelated-jitter retries, and
 * graceful degradation: the sweep completes even when tasks exhaust
 * their retries, emitting <out>/sweep.json (merged results, ordered
 * by task, byte-stable across worker counts and retries) plus
 * <out>/manifest.json (per-task coverage, attempts, failures). Exit
 * is nonzero for incomplete coverage only under --strict.
 *
 * The first real grids are the paper's manufacture-bound studies,
 * computed through the same bench/gridpoints.hh evaluators the bench
 * binaries print: fig04 (power/frequency ratio histogram lot, split
 * into chunks), fig05 (ratio vs sigma/mu sweep), yield (frequency
 * binning vs sigma/mu and ABB).
 *
 * Chaos mode (process-level extension of src/fault's seeded,
 * replayable injection philosophy): with VARSCHED_CHAOS=<seed> each
 * worker derives a fault plan from (seed, task, attempt) and may
 * crash before writing, crash mid-write leaving a torn output, hang
 * until the watchdog kills it, or corrupt its output and exit 0 —
 * the plan injects at most two faulty attempts per task, so a sweep
 * with maxAttempts >= 3 always converges to the same merged bytes as
 * an undisturbed serial run (the chaos_smoke e2e asserts exactly
 * that, with the orchestrator itself SIGKILLed and resumed).
 *
 * Examples:
 *   varsched_sweep --grid fig05 --out sweep_fig05
 *   varsched_sweep --grid yield --out y --workers 8 --timeout 600
 *   varsched_sweep --grid fig05 --out sweep_fig05        # resume
 */

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "bench/gridpoints.hh"
#include "core/experiment.hh"
#include "runtime/diepop.hh"
#include "runtime/orchestrator.hh"
#include "solver/stats.hh"

using namespace varsched;

namespace
{

/** One grid point = one sweep task. */
struct GridPoint
{
    std::string id;
    std::string kind; ///< "ratios" or "yield".
    double sigma = 0.12;
    double abb = 0.0;
    /** Slice [dieBegin, dieEnd) of the lot's seed vector. */
    std::size_t dieBegin = 0;
    std::size_t dieEnd = 0;
};

/** Parsed command line. */
struct Options
{
    std::string grid;
    std::string outDir;
    std::string taskId; ///< Non-empty selects worker mode.
    std::size_t workers = 4;
    std::size_t dies = 0; ///< 0 = per-grid default.
    std::size_t gridSize = 0; ///< 0 = DieParams default.
    std::uint64_t seed = 0; ///< 0 = per-grid default.
    std::size_t maxAttempts = 4;
    double timeoutSec = 0.0;
    double graceSec = 2.0;
    double retryBaseSec = 0.25;
    double retryCapSec = 8.0;
    bool strict = false;
    bool listOnly = false;
};

void
usage()
{
    std::puts(
        "varsched_sweep — checkpointed, resumable parameter-grid "
        "sweeps\n"
        "\n"
        "  --grid NAME        fig04 | fig05 | yield (required)\n"
        "  --out DIR          sweep directory: journal, task outputs,\n"
        "                     sweep.json, manifest.json (required)\n"
        "  --workers N        concurrent worker processes (default 4;\n"
        "                     1 = serial)\n"
        "  --dies N           dies per grid point (default: the\n"
        "                     bench's lot size)\n"
        "  --seed N           lot seed (default: the bench's seed)\n"
        "  --gridsize N       variation-field grid size (default: "
        "die default)\n"
        "  --max-attempts N   runs allowed per task (default 4)\n"
        "  --timeout SEC      per-task wall-clock timeout; SIGTERM\n"
        "                     then SIGKILL (default: off, or 10 under\n"
        "                     VARSCHED_CHAOS)\n"
        "  --grace SEC        SIGTERM->SIGKILL grace (default 2)\n"
        "  --retry-base SEC   first-retry backoff (default 0.25)\n"
        "  --retry-cap SEC    backoff ceiling (default 8)\n"
        "  --strict           exit nonzero when any task failed\n"
        "  --list             print the grid's task ids and exit\n"
        "  --task ID          (internal) worker mode: evaluate one\n"
        "                     grid point and write DIR/ID.json\n"
        "\n"
        "A sweep re-run with the same --out resumes from the journal:\n"
        "done tasks are kept, interrupted and failed ones re-run.\n"
        "VARSCHED_CHAOS=<seed> makes workers crash/hang/corrupt on a\n"
        "seeded schedule (testing only).");
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    auto needValue = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "missing value for %s\n", argv[i]);
            return nullptr;
        }
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *value = nullptr;
        if (arg == "--help" || arg == "-h") {
            usage();
            std::exit(0);
        } else if (arg == "--strict") {
            opt.strict = true;
        } else if (arg == "--list") {
            opt.listOnly = true;
        } else if (arg == "--grid") {
            if (!(value = needValue(i))) return false;
            opt.grid = value;
        } else if (arg == "--out") {
            if (!(value = needValue(i))) return false;
            opt.outDir = value;
        } else if (arg == "--task") {
            if (!(value = needValue(i))) return false;
            opt.taskId = value;
        } else if (arg == "--workers") {
            if (!(value = needValue(i))) return false;
            opt.workers = std::strtoul(value, nullptr, 10);
        } else if (arg == "--dies") {
            if (!(value = needValue(i))) return false;
            opt.dies = std::strtoul(value, nullptr, 10);
        } else if (arg == "--gridsize") {
            if (!(value = needValue(i))) return false;
            opt.gridSize = std::strtoul(value, nullptr, 10);
        } else if (arg == "--seed") {
            if (!(value = needValue(i))) return false;
            opt.seed = std::strtoull(value, nullptr, 10);
        } else if (arg == "--max-attempts") {
            if (!(value = needValue(i))) return false;
            opt.maxAttempts = std::strtoul(value, nullptr, 10);
        } else if (arg == "--timeout") {
            if (!(value = needValue(i))) return false;
            opt.timeoutSec = std::strtod(value, nullptr);
        } else if (arg == "--grace") {
            if (!(value = needValue(i))) return false;
            opt.graceSec = std::strtod(value, nullptr);
        } else if (arg == "--retry-base") {
            if (!(value = needValue(i))) return false;
            opt.retryBaseSec = std::strtod(value, nullptr);
        } else if (arg == "--retry-cap") {
            if (!(value = needValue(i))) return false;
            opt.retryCapSec = std::strtod(value, nullptr);
        } else {
            std::fprintf(stderr, "unknown option '%s' (--help?)\n",
                         arg.c_str());
            return false;
        }
    }
    if (opt.grid.empty() || opt.outDir.empty()) {
        std::fprintf(stderr,
                     "--grid and --out are required (--help?)\n");
        return false;
    }
    return true;
}

/** Fill grid-specific defaults the worker must agree on. */
void
applyGridDefaults(Options &opt)
{
    if (opt.grid == "fig04") {
        if (opt.dies == 0) opt.dies = 200;
        if (opt.seed == 0) opt.seed = 2026;
    } else if (opt.grid == "fig05") {
        if (opt.dies == 0) opt.dies = 60;
        if (opt.seed == 0) opt.seed = 2026;
    } else if (opt.grid == "yield") {
        if (opt.dies == 0) opt.dies = 80;
        if (opt.seed == 0) opt.seed = 777;
    }
}

std::string
pointId(const char *prefix, double sigma, double abb)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s_s%03d_a%02d", prefix,
                  static_cast<int>(sigma * 100.0 + 0.5),
                  static_cast<int>(abb * 10.0 + 0.5));
    return buf;
}

/** The declarative grids. Task order here is merge order. */
std::vector<GridPoint>
buildGrid(const Options &opt)
{
    std::vector<GridPoint> points;
    if (opt.grid == "fig05") {
        // One task per sigma/mu point, each over the whole lot.
        for (double sigma : {0.03, 0.06, 0.09, 0.12}) {
            GridPoint p;
            p.id = pointId("fig05", sigma, 0.0);
            p.kind = "ratios";
            p.sigma = sigma;
            p.dieEnd = opt.dies;
            points.push_back(p);
        }
    } else if (opt.grid == "fig04") {
        // The Fig 4 histogram lot at sigma/mu = 0.12, split into
        // four chunks so a crash loses a quarter-lot, not the lot.
        const std::size_t chunks = 4;
        for (std::size_t c = 0; c < chunks; ++c) {
            GridPoint p;
            char buf[32];
            std::snprintf(buf, sizeof buf, "fig04_c%zu", c);
            p.id = buf;
            p.kind = "ratios";
            p.sigma = 0.12;
            p.dieBegin = c * opt.dies / chunks;
            p.dieEnd = (c + 1) * opt.dies / chunks;
            points.push_back(p);
        }
    } else if (opt.grid == "yield") {
        // The bench's rows: sigma sweep at ABB 0, ABB sweep at 0.12.
        for (double sigma : {0.03, 0.06, 0.09, 0.12}) {
            GridPoint p;
            p.id = pointId("yield", sigma, 0.0);
            p.kind = "yield";
            p.sigma = sigma;
            p.dieEnd = opt.dies;
            points.push_back(p);
        }
        for (double abb : {0.5, 1.0}) {
            GridPoint p;
            p.id = pointId("yield", 0.12, abb);
            p.kind = "yield";
            p.sigma = 0.12;
            p.abb = abb;
            p.dieEnd = opt.dies;
            points.push_back(p);
        }
    }
    return points;
}

// ---------------------------------------------------------------------
// Chaos (process-level fault injection; see src/fault for the
// in-simulation counterpart). All decisions derive from
// (VARSCHED_CHAOS, task id, attempt), so a chaos run replays
// bit-identically and injects at most two faulty attempts per task.

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Apply the chaos plan for (task, attempt). Returns only when this
 * attempt is scheduled to run clean; otherwise injects the fault
 * (possibly never returning).
 */
void
maybeInjectChaos(const std::string &taskId,
                 const std::string &outputPath)
{
    const char *env = std::getenv("VARSCHED_CHAOS");
    if (env == nullptr || *env == '\0')
        return;
    const std::uint64_t chaosSeed =
        std::strtoull(env, nullptr, 10);
    std::size_t attempt = 1;
    if (const char *a = std::getenv("VARSCHED_TASK_ATTEMPT"))
        attempt = std::strtoul(a, nullptr, 10);

    const std::uint64_t h =
        deriveSeed(chaosSeed, fnv1a(taskId), attempt);
    const std::uint64_t plan =
        deriveSeed(chaosSeed, fnv1a(taskId), 0);
    const std::size_t faultyAttempts = plan % 3; // 0..2 per task
    if (attempt > faultyAttempts)
        return; // this attempt runs clean

    switch (h % 4) {
    case 0:
        // Crash before producing anything.
        std::fprintf(stderr, "[chaos] %s attempt %zu: crash\n",
                     taskId.c_str(), attempt);
        ::_exit(134);
    case 1: {
        // Crash mid-write: a torn, non-atomic result file.
        std::fprintf(stderr, "[chaos] %s attempt %zu: torn write\n",
                     taskId.c_str(), attempt);
        if (std::FILE *out = std::fopen(outputPath.c_str(), "w")) {
            std::fprintf(out, "{\"task\": \"%s\", \"power_ratio",
                         taskId.c_str());
            std::fclose(out);
        }
        ::_exit(139);
    }
    case 2:
        // Hang until the watchdog escalates. The alarm is a backstop
        // for a worker that outlives a SIGKILLed orchestrator where
        // the parent-death signal is unavailable (not Linux): nobody
        // is left to time it out, so it times itself out.
        std::fprintf(stderr, "[chaos] %s attempt %zu: hang\n",
                     taskId.c_str(), attempt);
        ::alarm(30);
        for (;;)
            ::pause();
    default:
        // Corrupt the output *and exit 0*: only output validation
        // can catch this one.
        std::fprintf(stderr,
                     "[chaos] %s attempt %zu: corrupt output\n",
                     taskId.c_str(), attempt);
        if (std::FILE *out = std::fopen(outputPath.c_str(), "w")) {
            std::fprintf(out, "{\"task\": \"%s\", \"garbage\": [1, {",
                         taskId.c_str());
            std::fclose(out);
        }
        ::_exit(0);
    }
}

// ---------------------------------------------------------------------
// Worker mode: evaluate one grid point, write DIR/ID.json atomically.

void
appendSummary(std::string &out, const char *name, const Summary &s)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "\"%s\": {\"mean\": %.17g, \"min\": %.17g, "
                  "\"max\": %.17g, \"stddev\": %.17g}",
                  name, s.mean(), s.min(), s.max(), s.stddev());
    out += buf;
}

int
runWorker(const Options &opt, const GridPoint &point)
{
    const std::string outputPath =
        opt.outDir + "/" + point.id + ".json";
    maybeInjectChaos(point.id, outputPath);

    DieParams params;
    params.variation.vthSigmaOverMu = point.sigma;
    params.abbStrength = point.abb;
    if (opt.gridSize > 0)
        params.variation.gridSize = opt.gridSize;

    // The whole lot's seeds, then this point's slice — chunked tasks
    // (fig04) see exactly the dies the serial bench would give them.
    const auto lotSeeds = diePopulationSeeds(opt.dies, opt.seed);
    const std::vector<std::uint64_t> seeds(
        lotSeeds.begin() +
            static_cast<std::ptrdiff_t>(point.dieBegin),
        lotSeeds.begin() +
            static_cast<std::ptrdiff_t>(point.dieEnd));

    char buf[256];
    std::string out = "{";
    std::snprintf(buf, sizeof buf,
                  "\"task\": \"%s\", \"grid\": \"%s\", "
                  "\"kind\": \"%s\", \"sigma\": %.17g, "
                  "\"abb\": %.17g, \"dies\": %zu",
                  point.id.c_str(), opt.grid.c_str(),
                  point.kind.c_str(), point.sigma, point.abb,
                  seeds.size());
    out += buf;

    if (point.kind == "ratios") {
        const auto run = runDiePopulation(
            params, seeds, [](const Die &die, std::size_t) {
                return bench::coreRatios(die);
            });
        Summary power, freq;
        std::string perDiePower, perDieFreq;
        for (const bench::DieRatios &r : run.results) {
            power.add(r.power);
            freq.add(r.freq);
            std::snprintf(buf, sizeof buf, "%s%.17g",
                          perDiePower.empty() ? "" : ", ", r.power);
            perDiePower += buf;
            std::snprintf(buf, sizeof buf, "%s%.17g",
                          perDieFreq.empty() ? "" : ", ", r.freq);
            perDieFreq += buf;
        }
        out += ", ";
        appendSummary(out, "power_ratio", power);
        out += ", ";
        appendSummary(out, "freq_ratio", freq);
        out += ", \"per_die_power\": [" + perDiePower + "]";
        out += ", \"per_die_freq\": [" + perDieFreq + "]";
    } else if (point.kind == "yield") {
        const double powerLimitW = 120.0;
        const std::vector<double> targetsGHz = {2.2, 2.5, 2.8, 3.1};
        const auto run = runDiePopulation(
            params, seeds, [](const Die &die, std::size_t) {
                return bench::dieYield(die);
            });
        Summary clock;
        std::vector<std::size_t> meets(targetsGHz.size(), 0);
        std::size_t powerOk = 0;
        for (const bench::DieYield &y : run.results) {
            clock.add(y.clockHz);
            const bool power = y.staticW <= powerLimitW;
            powerOk += power;
            for (std::size_t t = 0; t < targetsGHz.size(); ++t)
                if (power && y.clockHz >= targetsGHz[t] * 1e9)
                    ++meets[t];
        }
        out += ", ";
        appendSummary(out, "clock_hz", clock);
        out += ", \"bin_yield\": {";
        for (std::size_t t = 0; t < targetsGHz.size(); ++t) {
            std::snprintf(buf, sizeof buf, "%s\"%.1f\": %.17g",
                          t > 0 ? ", " : "", targetsGHz[t],
                          static_cast<double>(meets[t]) /
                              static_cast<double>(seeds.size()));
            out += buf;
        }
        std::snprintf(buf, sizeof buf,
                      "}, \"power_ok\": %.17g",
                      static_cast<double>(powerOk) /
                          static_cast<double>(seeds.size()));
        out += buf;
    } else {
        std::fprintf(stderr, "unknown task kind '%s'\n",
                     point.kind.c_str());
        return 1;
    }
    out += "}\n";

    // Atomic publish: a crash mid-write leaves only the temp file,
    // never a torn output at the path the orchestrator validates.
    const std::string tmp =
        outputPath + ".tmp." + std::to_string(::getpid());
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", tmp.c_str());
        return 1;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fflush(f);
    ::fsync(::fileno(f));
    std::fclose(f);
    if (std::rename(tmp.c_str(), outputPath.c_str()) != 0) {
        std::remove(tmp.c_str());
        return 1;
    }
    return 0;
}

/** mkdir -p: create @p dir and any missing parents. */
void
makeDirs(const std::string &dir)
{
    std::string partial;
    for (std::size_t i = 0; i <= dir.size(); ++i) {
        if (i == dir.size() || dir[i] == '/') {
            if (!partial.empty())
                ::mkdir(partial.c_str(), 0755); // EEXIST is fine
        }
        if (i < dir.size())
            partial += dir[i];
    }
}

/** This binary's own path, for re-exec as a worker. */
std::string
selfExecutable(const char *argv0)
{
    char buf[4096];
    const ::ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return 1;
    applyGridDefaults(opt);

    const std::vector<GridPoint> grid = buildGrid(opt);
    if (grid.empty()) {
        std::fprintf(stderr,
                     "unknown grid '%s' (fig04 | fig05 | yield)\n",
                     opt.grid.c_str());
        return 1;
    }
    if (opt.listOnly) {
        for (const GridPoint &p : grid)
            std::printf("%s\n", p.id.c_str());
        return 0;
    }

    makeDirs(opt.outDir);

    if (!opt.taskId.empty()) {
        for (const GridPoint &p : grid)
            if (p.id == opt.taskId)
                return runWorker(opt, p);
        std::fprintf(stderr, "unknown task '%s' in grid '%s'\n",
                     opt.taskId.c_str(), opt.grid.c_str());
        return 1;
    }

    // Orchestrator mode.
    const std::string self = selfExecutable(argv[0]);
    std::vector<SweepTask> tasks;
    for (const GridPoint &p : grid) {
        SweepTask task;
        task.id = p.id;
        task.outputPath = opt.outDir + "/" + p.id + ".json";
        task.argv = {self,
                     "--grid", opt.grid,
                     "--out", opt.outDir,
                     "--task", p.id,
                     "--dies", std::to_string(opt.dies),
                     "--seed", std::to_string(opt.seed),
                     "--gridsize", std::to_string(opt.gridSize)};
        tasks.push_back(task);
    }

    OrchestratorConfig config;
    config.maxWorkers = opt.workers;
    config.retry.maxAttempts = opt.maxAttempts;
    config.retry.baseDelaySec = opt.retryBaseSec;
    config.retry.maxDelaySec = opt.retryCapSec;
    config.taskTimeoutSec = opt.timeoutSec;
    config.killGraceSec = opt.graceSec;
    config.journalPath = opt.outDir + "/journal.jsonl";
    if (std::getenv("VARSCHED_CHAOS") != nullptr &&
        config.taskTimeoutSec <= 0.0) {
        // Chaos hangs workers; an unbounded sweep would never end.
        config.taskTimeoutSec = 10.0;
    }

    std::printf("varsched_sweep: grid %s, %zu tasks, %zu workers, "
                "journal %s\n",
                opt.grid.c_str(), tasks.size(), opt.workers,
                config.journalPath.c_str());

    installStopSignalHandlers();
    SweepOrchestrator orchestrator(tasks, config);
    const SweepReport report = orchestrator.run();

    // Flush results and state even on interrupt or partial coverage:
    // graceful degradation means whatever completed is published and
    // accounted for.
    const std::string sweepPath = opt.outDir + "/sweep.json";
    const std::string manifestPath = opt.outDir + "/manifest.json";
    orchestrator.writeMergedOutputs(sweepPath);
    orchestrator.writeManifest(manifestPath, report);

    std::printf("varsched_sweep: %zu done, %zu failed, %zu pending "
                "(%zu launches%s)\n",
                report.done, report.failed, report.pending,
                report.launches,
                report.interrupted ? ", interrupted" : "");
    std::printf("  results:  %s\n  manifest: %s\n",
                sweepPath.c_str(), manifestPath.c_str());

    if (report.interrupted) {
        std::printf("interrupted — checkpoint written; re-run the "
                    "same command to resume\n");
        return 130;
    }
    if (!report.complete()) {
        std::printf("incomplete coverage — see manifest%s\n",
                    opt.strict ? " (strict: failing)" : "");
        return opt.strict ? 1 : 0;
    }
    return 0;
}
