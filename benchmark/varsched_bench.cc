/**
 * @file
 * The varsched benchmark program. Runs one named workload through the
 * library's public API for a fixed host-time budget, checks the
 * simulated outputs, and prints every metric as a
 * `<metric> <workload> <value> <unit>` line followed by one JSON
 * result line:
 *
 *   varsched_bench --workload W --seed S --seconds T --trace 0|1
 *                  [--scale F] [--trace-out PATH]
 *
 * --trace 0 measures the end-to-end metrics untraced. --trace 1 is the
 * separate per-layer pass: it times each layer's public functions from
 * outside on the workload's own dies and tuples, then replays a slice
 * of the workload untraced and traced, splitting tick-loop time by the
 * library's spans and registry counters. --scale shrinks every round
 * (the smoke run uses it); metrics are only comparable at one scale.
 *
 * Pool work runs on kWorkers workers, set through the public
 * BatchConfig::workerThreads / runDiePopulation(workerOverride) knobs;
 * the program sets no environment variable. Registry counters and
 * histograms are read as before/after deltas, never cleared, because
 * library code holds function-local references to them.
 */

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include "chip/die.hh"
#include "chip/sensors.hh"
#include "cmpsim/workload.hh"
#include "core/experiment.hh"
#include "core/linopt.hh"
#include "core/pmalgo.hh"
#include "core/sann.hh"
#include "core/sched.hh"
#include "core/system.hh"
#include "floorplan/floorplan.hh"
#include "power/leakage.hh"
#include "runtime/diepop.hh"
#include "runtime/metrics.hh"
#include "runtime/trace.hh"
#include "solver/rng.hh"
#include "thermal/thermal.hh"
#include "timing/critpath.hh"
#include "varius/varmap.hh"

extern char **environ;

using namespace varsched;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Pool workers of every workload: with the waiting caller, three
 *  threads, which leaves a core free on a four-core host. */
constexpr std::size_t kWorkers = 2;
/** Rounds every run completes whatever its budget; the output digest
 *  covers exactly these, so it is a pure function of the seed. */
constexpr std::size_t kDigestRounds = 3;
/** Child processes timed for setup_s (the median is reported). */
constexpr std::size_t kSetupReps = 11;
/** Samples per layer-probe timing, so a p95 has ten samples above. */
constexpr std::size_t kProbeSamples = 200;
/** SAnn evaluation budget of dvfs_sann and of the SAnn probe (Fig 11). */
constexpr std::size_t kSannEvals = 8000;

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (rank - lo) * (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Output checks; every failure is reported on stderr. */
struct Checks
{
    std::size_t attempted = 0;
    std::size_t failed = 0;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "check failed: %s\n", what.c_str());
        }
    }
};

/** FNV-1a over the bit patterns of simulated outputs. */
struct Digest
{
    std::uint64_t hash = 0xcbf29ce484222325ull;

    void
    add(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        for (int i = 0; i < 8; ++i) {
            hash ^= (bits >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    }
};

/** What one round did. */
struct RoundStats
{
    double units = 0.0; ///< Work completed, in the workload's unit.
    std::uint64_t exactTicks = 0;
    std::uint64_t sampledTicks = 0;
    std::uint64_t invalidations = 0;
    double estErrMax = 0.0;
};

/** Inputs the layer probes draw from: the workload's own die
 *  parameters, thread count, application pool and manager settings. */
struct ProbeSpec
{
    DieParams params;
    std::size_t threads = 20;
    const std::vector<AppProfile> *pool = nullptr;
    SystemConfig config;
};

/**
 * One benchmark workload: a deterministic stream of equal-sized
 * rounds, round r a pure function of (seed, r).
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Run round @p r; fold its outputs into @p digest when given. */
    virtual RoundStats runRound(std::size_t r, Digest *digest) = 0;
    /** Check the outputs of every round run so far. */
    virtual void check(Checks &checks) const = 0;
    /** Unit of RoundStats::units, for the human-readable report. */
    virtual const char *unit() const = 0;
    /** Probe inputs drawn from this workload. */
    virtual const ProbeSpec &probe() const = 0;
    /** True when rounds run the tick loop. */
    virtual bool simulates() const { return true; }
    /** Phase-sampling error of the workload's first tuple; nullopt
     *  when the workload does not sample. */
    virtual std::optional<double> samplingError() const
    {
        return std::nullopt;
    }
};

/** Running mean of per-round means, weighted by sample count. */
struct Pooled
{
    double sum = 0.0;
    double n = 0.0;

    void
    add(const Summary &s)
    {
        sum += s.mean() * static_cast<double>(s.count());
        n += static_cast<double>(s.count());
    }

    double mean() const { return n > 0.0 ? sum / n : 0.0; }
};

/** @p n scaled down for a smoke run, at least 1. */
std::size_t
scaled(std::size_t n, double scale)
{
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(n * scale)));
}

/** One runBatch call of a round: a thread count and its configs. */
struct BatchPoint
{
    std::size_t threads = 0;
    std::vector<SystemConfig> configs;
};

/**
 * A workload built from runBatch calls: every round manufactures
 * dies x trials tuples from a fresh batch seed and runs each point on
 * them. Points of one round share dies, so repeating a point sweep
 * re-manufactures the same dies.
 */
class BatchWorkload : public Workload
{
  public:
    using CheckFn = std::function<void(const BatchWorkload &, Checks &)>;

    /** What a round's work is counted in. */
    enum class Unit
    {
        Runs,  ///< (die, trial, config) simulations.
        Ticks, ///< Simulated ticks.
    };

    BatchWorkload(std::uint64_t seed, BatchConfig proto,
                  std::vector<BatchPoint> points, ProbeSpec probe,
                  CheckFn checkFn, Unit unit = Unit::Runs)
        : seed_(seed), proto_(std::move(proto)),
          points_(std::move(points)), probe_(std::move(probe)),
          checkFn_(std::move(checkFn)), unit_(unit),
          relMips_(points_.size()), absPowerW_(points_.size())
    {
        for (std::size_t p = 0; p < points_.size(); ++p) {
            relMips_[p].resize(points_[p].configs.size());
            absPowerW_[p].resize(points_[p].configs.size());
        }
    }

    RoundStats
    runRound(std::size_t r, Digest *digest) override
    {
        const BatchConfig batch = roundBatch(r);
        RoundStats stats;
        for (std::size_t p = 0; p < points_.size(); ++p) {
            const BatchPoint &point = points_[p];
            const BatchResult result =
                runBatch(batch, point.threads, point.configs);
            const double tuples =
                static_cast<double>(batch.numDies * batch.numTrials);
            stats.units += unitsPerTuple(point) * tuples;
            stats.exactTicks += result.exactTicks;
            stats.sampledTicks += result.sampledTicks;
            stats.invalidations += result.phaseInvalidations;
            stats.estErrMax = std::max(stats.estErrMax, result.estErrMax);
            for (std::size_t k = 0; k < point.configs.size(); ++k) {
                const ConfigMetrics &abs = result.absolute[k];
                const RelativeMetrics &rel = result.relative[k];
                relMips_[p][k].add(rel.mips);
                absPowerW_[p][k].add(abs.powerW);
                for (double v :
                     {abs.mips.mean(), abs.powerW.mean(),
                      abs.freqHz.mean(), abs.ed2.mean(),
                      abs.deviation.mean(), rel.mips.mean(),
                      rel.ed2.mean()}) {
                    allFinite_ = allFinite_ && std::isfinite(v);
                    if (digest != nullptr)
                        digest->add(v);
                }
            }
        }
        exactTicks_ += stats.exactTicks;
        sampledTicks_ += stats.sampledTicks;
        return stats;
    }

    void
    check(Checks &checks) const override
    {
        checks.expect(allFinite_, "every simulated summary is finite");
        checkFn_(*this, checks);
    }

    const char *
    unit() const override
    {
        return unit_ == Unit::Ticks ? "ticks" : "runs";
    }

    const ProbeSpec &probe() const override { return probe_; }

    /**
     * Die 0, trial 0 of round 0 under the first config at a 250k-tick
     * horizon: max relative difference of average power, energy and
     * ED^2 between the sampled run and the same run at error budget 0,
     * which never extrapolates.
     */
    std::optional<double>
    samplingError() const override
    {
        SystemConfig config = points_.front().configs.front();
        if (!config.phaseSampling.enabled)
            return std::nullopt;
        const BatchConfig batch = roundBatch(0);
        const Die die(batch.dieParams, dieSeedFor(batch, 0));
        Rng rng = workloadRngFor(batch, 0, 0);
        const auto apps = randomWorkload(points_.front().threads, rng,
                                         batch.workloadPool);
        config.seed = rng.next();
        config.durationMs = 250000.0;
        const SystemResult sampled = SystemSimulator(die, apps, config).run();
        config.phaseSampling.errorBudget = 0.0;
        const SystemResult exact = SystemSimulator(die, apps, config).run();
        double err = 0.0;
        for (const auto &[s, u] :
             {std::pair{sampled.avgPowerW, exact.avgPowerW},
              std::pair{sampled.energyJ, exact.energyJ},
              std::pair{sampled.ed2, exact.ed2}})
            err = std::max(err, std::abs(s - u) / std::abs(u));
        return err;
    }

    double relMips(std::size_t p, std::size_t k) const
    { return relMips_[p][k].mean(); }
    double absPowerW(std::size_t p, std::size_t k) const
    { return absPowerW_[p][k].mean(); }
    const BatchPoint &point(std::size_t p) const { return points_[p]; }
    std::size_t numPoints() const { return points_.size(); }

    double
    sampledFraction() const
    {
        const double total =
            static_cast<double>(exactTicks_ + sampledTicks_);
        return total > 0.0 ? static_cast<double>(sampledTicks_) / total
                           : 0.0;
    }

  private:
    /** Round @p r's batch: the prototype under a seed of its own. */
    BatchConfig
    roundBatch(std::size_t r) const
    {
        BatchConfig batch = proto_;
        batch.seed = deriveSeed(seed_, 0xB47C, r);
        batch.workerThreads = kWorkers;
        return batch;
    }

    /** Work one (die, trial) tuple of @p point does. */
    double
    unitsPerTuple(const BatchPoint &point) const
    {
        if (unit_ == Unit::Runs)
            return static_cast<double>(point.configs.size());
        double ticks = 0.0;
        for (const SystemConfig &c : point.configs)
            ticks += c.durationMs / c.tickMs;
        return ticks;
    }

    std::uint64_t seed_;
    BatchConfig proto_;
    std::vector<BatchPoint> points_;
    ProbeSpec probe_;
    CheckFn checkFn_;
    Unit unit_;
    std::vector<std::vector<Pooled>> relMips_;
    std::vector<std::vector<Pooled>> absPowerW_;
    std::uint64_t exactTicks_ = 0;
    std::uint64_t sampledTicks_ = 0;
    bool allFinite_ = true;
};

/** What the mfg_lot fold keeps per die. */
struct DieBin
{
    double clockHz = 0.0; ///< UniFreq clock (slowest core's fmax).
    double staticW = 0.0; ///< Static power of all cores at top level.
};

/**
 * mfg_lot: one lot manufactured under three process settings through
 * runDiePopulation, folding each die to its UniFreq clock and static
 * power. A round is one slice of the lot under all three settings.
 */
class MfgLotWorkload : public Workload
{
  public:
    MfgLotWorkload(std::uint64_t seed, double scale)
        : seed_(seed),
          seedsPerRound_(scaled(72, scale))
    {
        settings_[0].variation.vthSigmaOverMu = 0.06;
        settings_[1].variation.vthSigmaOverMu = 0.12;
        settings_[2].variation.vthSigmaOverMu = 0.12;
        settings_[2].abbStrength = 0.5;
        probe_.params = settings_[1];
        probe_.threads = 20;
        probe_.config.sched = SchedAlgo::VarFAppIPC;
        probe_.config.pm = PmKind::LinOpt;
        probe_.config.ptargetW = 75.0;
    }

    RoundStats
    runRound(std::size_t r, Digest *digest) override
    {
        // A slice wider than the 64-entry field-sample FIFO, so the
        // second and third settings re-manufacture seeds whose fields
        // were already evicted: that cache always misses here.
        const auto seeds =
            diePopulationSeeds(seedsPerRound_, deriveSeed(seed_, 0x107, r));
        RoundStats stats;
        for (std::size_t k = 0; k < settings_.size(); ++k) {
            const auto run = runDiePopulation(
                settings_[k], seeds,
                [](const Die &die, std::size_t) {
                    DieBin bin;
                    bin.clockHz = die.uniformFreq();
                    for (std::size_t c = 0; c < die.numCores(); ++c)
                        bin.staticW += die.staticPowerAt(c, die.maxLevel());
                    return bin;
                },
                kWorkers);
            for (const DieBin &bin : run.results) {
                clockHz_[k].add(bin.clockHz);
                allFinite_ = allFinite_ && std::isfinite(bin.clockHz) &&
                    std::isfinite(bin.staticW) && bin.clockHz > 0.0;
                if (digest != nullptr) {
                    digest->add(bin.clockHz);
                    digest->add(bin.staticW);
                }
            }
            stats.units += static_cast<double>(run.results.size());
        }
        return stats;
    }

    void
    check(Checks &checks) const override
    {
        checks.expect(allFinite_, "every die bin is finite and positive");
        checks.expect(clockHz_[0].mean() > clockHz_[1].mean(),
                      "mean UniFreq clock falls from sigma/mu 0.06 to 0.12");
        checks.expect(clockHz_[2].mean() > clockHz_[1].mean(),
                      "ABB 0.5 raises the mean UniFreq clock at 0.12");
    }

    const char *unit() const override { return "dies"; }
    const ProbeSpec &probe() const override { return probe_; }
    bool simulates() const override { return false; }

  private:
    std::uint64_t seed_;
    std::size_t seedsPerRound_;
    std::array<DieParams, 3> settings_;
    std::array<Summary, 3> clockHz_;
    ProbeSpec probe_;
    bool allFinite_ = true;
};

SystemConfig
makeConfig(SchedAlgo sched, PmKind pm, double ptargetW, double durationMs)
{
    SystemConfig c;
    c.sched = sched;
    c.pm = pm;
    c.ptargetW = ptargetW;
    c.durationMs = durationMs;
    return c;
}

/** dvfs_sann: the Fig 11 protocol (threads 4-20, Foxton*, LinOpt and
 *  SAnn at 8000 evaluations, 150 ms). */
std::unique_ptr<Workload>
makeDvfsSann(std::uint64_t seed, double scale)
{
    BatchConfig proto;
    proto.numDies = scaled(8, scale);
    proto.numTrials = 5;
    std::vector<BatchPoint> points;
    for (std::size_t threads : {4, 8, 16, 20}) {
        const double ptargetW = 75.0 * static_cast<double>(threads) / 20.0;
        BatchPoint point;
        point.threads = threads;
        point.configs = {
            makeConfig(SchedAlgo::Random, PmKind::FoxtonStar, ptargetW, 150),
            makeConfig(SchedAlgo::VarFAppIPC, PmKind::FoxtonStar, ptargetW,
                       150),
            makeConfig(SchedAlgo::VarFAppIPC, PmKind::LinOpt, ptargetW, 150),
            makeConfig(SchedAlgo::VarFAppIPC, PmKind::SAnn, ptargetW, 150),
        };
        for (SystemConfig &c : point.configs)
            c.sannEvals = kSannEvals;
        points.push_back(std::move(point));
    }
    ProbeSpec probe;
    probe.threads = 20;
    probe.config = points.back().configs[3];
    return std::make_unique<BatchWorkload>(
        seed, proto, std::move(points), probe,
        [](const BatchWorkload &w, Checks &checks) {
            for (std::size_t p = 0; p < w.numPoints(); ++p) {
                const std::string at =
                    " at " + std::to_string(w.point(p).threads) +
                    " threads";
                const double linopt = w.relMips(p, 2);
                const double sann = w.relMips(p, 3);
                checks.expect(linopt > 1.0,
                              "LinOpt beats Random+Foxton*" + at);
                checks.expect(sann / linopt >= 0.95 &&
                                  sann / linopt <= 1.05,
                              "SAnn/LinOpt within [0.95, 1.05]" + at);
            }
        });
}

/** dvfs_linopt: 20 threads at 75 W for 1000 ms; NUniFreq without DVFS
 *  and the exact tick engine under Foxton* and LinOpt. */
std::unique_ptr<Workload>
makeDvfsLinOpt(std::uint64_t seed, double scale)
{
    constexpr double kPtargetW = 75.0;
    BatchConfig proto;
    proto.numDies = scaled(4, scale);
    proto.numTrials = 10;
    BatchPoint point;
    point.threads = 20;
    point.configs = {
        makeConfig(SchedAlgo::Random, PmKind::None, kPtargetW, 1000),
        makeConfig(SchedAlgo::VarFAppIPC, PmKind::None, kPtargetW, 1000),
        makeConfig(SchedAlgo::Random, PmKind::FoxtonStar, kPtargetW, 1000),
        makeConfig(SchedAlgo::VarFAppIPC, PmKind::LinOpt, kPtargetW, 1000),
    };
    ProbeSpec probe;
    probe.threads = 20;
    probe.config = point.configs[3];
    return std::make_unique<BatchWorkload>(
        seed, proto, std::vector<BatchPoint>{point}, probe,
        [](const BatchWorkload &w, Checks &checks) {
            checks.expect(w.relMips(0, 1) >= 1.0,
                          "VarF&AppIPC relative MIPS >= 1.0");
            for (std::size_t k : {2, 3}) {
                checks.expect(w.absPowerW(0, k) <= 1.05 * kPtargetW,
                              "mean power under " +
                                  std::string(pmKindName(
                                      w.point(0).configs[k].pm)) +
                                  " <= 1.05 x Ptarget");
            }
        });
}

/**
 * longhorizon: 250k-tick traffic horizons on the phase-sampled engine,
 * LinOpt at 30 W on 8 threads. The per-die cost follows how much of
 * the horizon the sampler extrapolates, which varies from die to die,
 * so a run averages many shorter horizons rather than a few
 * million-tick ones, and a round holds enough dies that its time is
 * not set by which worker drew the slowest.
 */
std::unique_ptr<Workload>
makeLongHorizon(std::uint64_t seed, double scale)
{
    BatchConfig proto;
    proto.numDies = scaled(8, scale);
    proto.numTrials = 1;
    proto.workloadPool = &trafficApplications();
    SystemConfig config = makeConfig(SchedAlgo::VarFAppIPC, PmKind::LinOpt,
                                     75.0 * 8.0 / 20.0, 250000.0);
    config.phaseSampling.enabled = true;
    config.phaseSampling.basisBlend = 0.5;
    ProbeSpec probe;
    probe.threads = 8;
    probe.pool = &trafficApplications();
    probe.config = config;
    return std::make_unique<BatchWorkload>(
        seed, proto, std::vector<BatchPoint>{{8, {config}}}, probe,
        [](const BatchWorkload &w, Checks &checks) {
            checks.expect(w.sampledFraction() >= 0.5,
                          "phase sampler extrapolates >= 50% of ticks");
        },
        BatchWorkload::Unit::Ticks);
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, double scale)
{
    if (name == "mfg_lot")
        return std::make_unique<MfgLotWorkload>(seed, scale);
    if (name == "dvfs_sann")
        return makeDvfsSann(seed, scale);
    if (name == "dvfs_linopt")
        return makeDvfsLinOpt(seed, scale);
    if (name == "longhorizon")
        return makeLongHorizon(seed, scale);
    return nullptr;
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Timing samples of one probe, reported as p50 and p95. */
struct Timings
{
    std::vector<double> samples;

    template <typename Fn>
    auto
    time(double perUnit, Fn &&fn)
    {
        const auto start = Clock::now();
        auto result = fn();
        samples.push_back(
            std::chrono::duration<double>(Clock::now() - start).count() *
            perUnit);
        return result;
    }

    double p50() const { return quantile(samples, 0.50); }
    double p95() const { return quantile(samples, 0.95); }
};

/** Layer probe results, gathered before they become metrics. */
struct ProbeResults
{
    std::map<std::string, Timings> timings; ///< Keyed by metric stem.
    double linoptPivots = 0.0;
    double linoptCalls = 0.0;
    double sannAccepted = 0.0;
    double sannMoves = 0.0;
};

/**
 * Manufacture-stage probes: Die(params, seed) whole, then the stages
 * its constructor runs, replayed on a disjoint seed set so the field
 * sample cache misses in both.
 */
void
probeManufacture(const ProbeSpec &spec, std::uint64_t seed,
                 ProbeResults &out)
{
    const DieParams &params = spec.params;
    for (std::size_t i = 0; i < kProbeSamples; ++i) {
        const std::uint64_t dieSeed = deriveSeed(seed, 0x9D1E, i);
        out.timings["chip.die_ms"].time(
            1e3, [&] { return Die(params, dieSeed).uniformFreq(); });
    }

    const Floorplan plan(params.numCores, params.dieAreaMm2);
    const LeakageModel leakage(params.leakage);
    for (std::size_t i = 0; i < kProbeSamples; ++i) {
        const std::uint64_t dieSeed = deriveSeed(seed, 0x57A6, i);
        Rng rng(dieSeed);
        const VariationMap map = out.timings["varius.varmap_ms"].time(
            1e3, [&] { return generateVariationMap(params.variation, rng); });

        Rng pathRng = Rng(dieSeed).fork(0xC0DE);
        const auto timing = out.timings["timing.critpath_ms"].time(1e3, [&] {
            std::vector<CoreTiming> cores;
            for (std::size_t c = 0; c < params.numCores; ++c)
                cores.push_back(buildCoreTiming(map, plan, c, pathRng,
                                                params.delay,
                                                params.critPath));
            return cores;
        });

        out.timings["thermal.build_ms"].time(1e3, [&] {
            return ThermalModel(plan, params.thermal).capacities().size();
        });

        std::vector<std::vector<double>> vth(params.numCores);
        for (std::size_t c = 0; c < params.numCores; ++c) {
            vth[c] = out.timings["power.sample_vth_us"].time(
                1e6, [&] { return leakage.sampleCoreVth(map, plan, c); });
        }

        // fmax and the leakage fold are sub-microsecond: one sample is
        // the mean over this die's whole (core, level) table.
        const double calls = static_cast<double>(
            params.numCores * params.voltageLevels.size());
        out.timings["timing.fmax_ns"].time(1e9 / calls, [&] {
            double s = 0.0;
            for (const CoreTiming &t : timing)
                for (double v : params.voltageLevels)
                    s += t.fmax(v, params.critPath.binTempC);
            return s;
        });
        out.timings["power.leak_fold_ns"].time(1e9 / calls, [&] {
            double s = 0.0;
            for (std::size_t c = 0; c < params.numCores; ++c)
                for (double v : params.voltageLevels)
                    s += leakage.corePowerSampled(vth[c],
                                                  map.vthSigmaRandom(), v,
                                                  params.leakage.refTempC);
            return s;
        });
    }
}

/**
 * Tick-loop component probes on (die, workload) tuples drawn like the
 * workload's own: scheduling, cold and warm settles, the sensor
 * snapshot, each power manager, and the thermal solve, once per DVFS
 * epoch of a short synthetic epoch sequence.
 */
void
probeTuples(const ProbeSpec &spec, std::uint64_t seed, ProbeResults &out)
{
    constexpr std::size_t kDies = 4;
    constexpr std::size_t kTuples = 20;
    constexpr std::size_t kEpochs = kProbeSamples / kTuples;
    std::vector<Die> dies;
    for (std::size_t d = 0; d < kDies; ++d)
        dies.emplace_back(spec.params, deriveSeed(seed, 0x7D1E, d));

    const SystemConfig &cfg = spec.config;
    const double pcoreMaxW = cfg.pcoreMaxW > 0.0
        ? cfg.pcoreMaxW
        : 2.0 * cfg.ptargetW / static_cast<double>(spec.threads);
    metrics::Counter &accepted =
        metrics::Registry::global().counter("sann.accepted");
    metrics::Counter &rejected =
        metrics::Registry::global().counter("sann.rejected");

    for (std::size_t t = 0; t < kTuples; ++t) {
        const Die &die = dies[t % kDies];
        Rng rng(deriveSeed(seed, 0x7A9E, t));
        const auto apps = randomWorkload(spec.threads, rng, spec.pool);
        const ChipEvaluator evaluator(die);
        LinOptManager linopt;
        FoxtonStarManager foxton;
        SAnnConfig sannConfig;
        sannConfig.maxEvals = kSannEvals;
        SAnnManager sann(sannConfig);

        std::vector<int> levels(die.numCores(),
                                static_cast<int>(die.maxLevel()));
        std::vector<CoreWork> work(die.numCores());
        ChipCondition cond;
        for (std::size_t e = 0; e < kEpochs; ++e) {
            const auto assignment = out.timings["core.sched_us"].time(
                1e6, [&] {
                    return scheduleThreads(cfg.sched, die, apps, rng);
                });
            if (e == 0) {
                for (std::size_t i = 0; i < apps.size(); ++i)
                    work[assignment[i]].app = apps[i];
            }
            const ChipCondition cold =
                out.timings["chip.settle_cold_us"].time(
                    1e6, [&] { return evaluator.evaluate(work, levels); });
            if (e == 0)
                cond = cold;

            Rng noise(deriveSeed(seed, 0x4E01, t * kEpochs + e));
            const ChipSnapshot snap = out.timings["chip.snapshot_us"].time(
                1e6, [&] {
                    return buildSnapshot(evaluator, work, cond, cfg.ptargetW,
                                         pcoreMaxW, &noise);
                });
            const auto chosen = out.timings["core.linopt_us"].time(
                1e6, [&] { return linopt.selectLevels(snap); });
            out.linoptPivots +=
                static_cast<double>(linopt.lastDiag().pivots);
            out.linoptCalls += 1.0;
            out.timings["core.foxton_us"].time(
                1e6, [&] { return foxton.selectLevels(snap); });

            sann.beginEpoch(e);
            const std::uint64_t acc0 = accepted.value();
            const std::uint64_t rej0 = rejected.value();
            const auto start = Clock::now();
            sann.selectLevels(snap);
            const double ns =
                std::chrono::duration<double, std::nano>(Clock::now() -
                                                         start)
                    .count();
            out.timings["core.sann_ns_per_eval"].samples.push_back(
                ns / static_cast<double>(std::max<std::size_t>(
                         sann.lastEvals(), 1)));
            out.sannAccepted +=
                static_cast<double>(accepted.value() - acc0);
            out.sannMoves += static_cast<double>(
                accepted.value() - acc0 + rejected.value() - rej0);

            for (std::size_t i = 0; i < snap.cores.size(); ++i)
                levels[snap.cores[i].coreId] = chosen[i];
            cond = out.timings["chip.settle_warm_us"].time(1e6, [&] {
                return evaluator.evaluate(work, levels, 0.0, &cond);
            });
            const std::vector<double> l2(2, cond.l2PowerW / 2.0);
            out.timings["thermal.solve_us"].time(1e6, [&] {
                return die.thermalModel().solve(cond.corePowerW, l2).sinkC;
            });
        }
    }
}

/** Before/after view of the pool counters the pass reads. */
struct PoolView
{
    std::uint64_t busyNs = 0;
    std::uint64_t steals = 0;
    std::uint64_t pops = 0;

    static PoolView
    read()
    {
        metrics::Registry &reg = metrics::Registry::global();
        PoolView v;
        v.busyNs = reg.counter("pool.busy_ns").value();
        v.steals = reg.counter("pool.steal").value();
        v.pops = reg.counter("pool.pop_own").value() +
            reg.counter("pool.pop_inject").value() + v.steals;
        return v;
    }
};

/** Span durations read back from a flushed trace. */
struct SpanTotals
{
    std::map<std::string, double> seconds; ///< Summed, by name.
    std::vector<double> trialMs; ///< Each experiment.trial span.

    double
    operator[](const std::string &name) const
    {
        const auto it = seconds.find(name);
        return it == seconds.end() ? 0.0 : it->second;
    }
};

SpanTotals
readSpans(const std::string &path)
{
    SpanTotals spans;
    std::ifstream in(path);
    std::string line;
    const std::string nameKey = "\"name\": \"";
    const std::string durKey = "\"dur\": ";
    while (std::getline(in, line)) {
        if (line.find("\"ph\": \"X\"") == std::string::npos)
            continue;
        const std::size_t at = line.find(nameKey);
        const std::size_t dur = line.find(durKey);
        if (at == std::string::npos || dur == std::string::npos)
            continue;
        const std::size_t from = at + nameKey.size();
        const std::string name =
            line.substr(from, line.find('"', from) - from);
        const double us =
            std::strtod(line.c_str() + dur + durKey.size(), nullptr);
        spans.seconds[name] += us * 1e-6;
        if (name == "experiment.trial")
            spans.trialMs.push_back(us * 1e-3);
    }
    return spans;
}

/** One pass over rounds [0, rounds) of the traced-pass slice. */
struct PassStats
{
    double wallSec = 0.0;
    std::size_t numRounds = 0;
    RoundStats rounds; ///< Summed over the pass.
    PoolView before;
    PoolView after;
};

/** 200 short trials of the probe config, run by the traced pass of
 *  workloads whose rounds do not simulate, so the tick-loop metrics
 *  have trials to split. */
void
runProbeBatch(const ProbeSpec &spec, std::uint64_t seed)
{
    BatchConfig batch;
    batch.dieParams = spec.params;
    batch.numDies = 10;
    batch.numTrials = 20;
    batch.seed = deriveSeed(seed, 0xBA7C);
    batch.workerThreads = kWorkers;
    batch.workloadPool = spec.pool;
    SystemConfig config = spec.config;
    config.durationMs = 250.0;
    runBatch(batch, spec.threads, {config});
}

/** Run rounds 0, 1, ... until at least @p minRounds ran and
 *  @p minSeconds passed, then the probe batch if rounds do not
 *  simulate. */
PassStats
runPass(Workload &workload, std::uint64_t seed, std::size_t minRounds,
        double minSeconds)
{
    PassStats pass;
    pass.before = PoolView::read();
    const auto start = Clock::now();
    while (pass.numRounds < minRounds || secondsSince(start) < minSeconds) {
        const RoundStats s = workload.runRound(pass.numRounds++, nullptr);
        pass.rounds.units += s.units;
        pass.rounds.exactTicks += s.exactTicks;
        pass.rounds.sampledTicks += s.sampledTicks;
        pass.rounds.invalidations += s.invalidations;
        pass.rounds.estErrMax = std::max(pass.rounds.estErrMax, s.estErrMax);
    }
    if (!workload.simulates())
        runProbeBatch(workload.probe(), seed);
    pass.wallSec = secondsSince(start);
    pass.after = PoolView::read();
    return pass;
}

/**
 * The traced pass: layer probes, then a slice of the workload run
 * untraced and again traced. Returns the per-layer metrics.
 */
std::vector<Metric>
tracedPass(Workload &workload, std::uint64_t seed, double seconds,
           const std::string &tracePath, Checks &checks)
{
    ProbeResults probes;
    probeManufacture(workload.probe(), seed, probes);
    probeTuples(workload.probe(), seed, probes);

    // The slice is as many rounds as fill a quarter of the budget
    // untraced; the traced replay runs the same rounds.
    const PassStats plain = runPass(workload, seed, 1, seconds / 4.0);
    const std::filesystem::path traceDir =
        std::filesystem::path(tracePath).parent_path();
    if (!traceDir.empty())
        std::filesystem::create_directories(traceDir);
    trace::traceStart(tracePath, std::size_t{1} << 23);
    const PassStats traced = runPass(workload, seed, plain.numRounds, 0.0);
    const trace::TraceStats stats = trace::traceStats();
    checks.expect(trace::traceStopAndFlush(), "trace written");
    checks.expect(stats.dropped == 0, "traced pass dropped no events");
    const SpanTotals spans = readSpans(tracePath);
    double physics = 0.0;
    for (const auto &[name, sec] : spans.seconds)
        if (name.rfind("physics.", 0) == 0)
            physics += sec;

    std::vector<Metric> m;
    const auto timing = [&](const std::string &stem, const char *unit) {
        const Timings &t = probes.timings[stem];
        checks.expect(t.samples.size() >= kProbeSamples,
                      stem + " has >= 200 samples");
        m.push_back({stem + ".p50", t.p50(), unit});
        m.push_back({stem + ".p95", t.p95(), unit});
    };
    timing("chip.die_ms", "ms");
    timing("varius.varmap_ms", "ms");
    timing("timing.critpath_ms", "ms");
    timing("timing.fmax_ns", "ns");
    timing("power.sample_vth_us", "us");
    timing("power.leak_fold_ns", "ns");
    timing("thermal.build_ms", "ms");
    const DieParams &params = workload.probe().params;
    const double cores = static_cast<double>(params.numCores);
    const double table =
        cores * static_cast<double>(params.voltageLevels.size());
    const double stagesMs = probes.timings["varius.varmap_ms"].p50() +
        probes.timings["timing.critpath_ms"].p50() +
        probes.timings["thermal.build_ms"].p50() +
        cores * probes.timings["power.sample_vth_us"].p50() * 1e-3 +
        table * (probes.timings["timing.fmax_ns"].p50() +
                 probes.timings["power.leak_fold_ns"].p50()) * 1e-6;
    m.push_back({"chip.die_other_frac",
                 1.0 - stagesMs / probes.timings["chip.die_ms"].p50(),
                 "fraction"});
    timing("chip.settle_cold_us", "us");
    timing("chip.settle_warm_us", "us");
    timing("thermal.solve_us", "us");
    timing("chip.snapshot_us", "us");
    timing("core.sched_us", "us");
    timing("core.linopt_us", "us");
    m.push_back({"core.linopt_pivots",
                 probes.linoptPivots / std::max(probes.linoptCalls, 1.0),
                 "count"});
    timing("core.foxton_us", "us");
    timing("core.sann_ns_per_eval", "ns");
    m.push_back({"core.sann_accept_frac",
                 probes.sannAccepted / std::max(probes.sannMoves, 1.0),
                 "fraction"});

    const double trial = spans["experiment.trial"];
    const auto ofTrial = [&](double sec) {
        return trial > 0.0 ? sec / trial : 0.0;
    };
    const double pm = spans["pm.decide"];
    const double sched = spans["sched.place"];
    m.push_back({"core.tick.physics_frac", ofTrial(physics), "fraction"});
    m.push_back({"core.tick.pm_frac", ofTrial(pm), "fraction"});
    m.push_back({"core.tick.sched_frac", ofTrial(sched), "fraction"});
    m.push_back({"core.tick.other_frac",
                 ofTrial(trial - physics - pm - sched), "fraction"});
    m.push_back({"core.trial_ms.p50", quantile(spans.trialMs, 0.50), "ms"});
    m.push_back({"core.trial_ms.p95", quantile(spans.trialMs, 0.95), "ms"});
    m.push_back({"core.trial_ms.count",
                 static_cast<double>(spans.trialMs.size()), "count"});

    const double ticks = static_cast<double>(plain.rounds.exactTicks +
                                             plain.rounds.sampledTicks);
    m.push_back({"core.phase.sampled_frac",
                 ticks > 0.0 ? plain.rounds.sampledTicks / ticks : 0.0,
                 "fraction"});
    m.push_back({"core.phase.est_err", plain.rounds.estErrMax, "fraction"});
    m.push_back({"core.phase.invalidations",
                 static_cast<double>(plain.rounds.invalidations), "count"});
    m.push_back({"core.phase.sampling_err",
                 workload.samplingError().value_or(0.0), "fraction"});

    const double workerSec = plain.wallSec * static_cast<double>(kWorkers);
    m.push_back({"runtime.pool.efficiency",
                 static_cast<double>(plain.after.busyNs - plain.before.busyNs) *
                     1e-9 / workerSec,
                 "fraction"});
    const double pops =
        static_cast<double>(plain.after.pops - plain.before.pops);
    m.push_back({"runtime.pool.steal_frac",
                 pops > 0.0
                     ? static_cast<double>(plain.after.steals -
                                           plain.before.steals) /
                         pops
                     : 0.0,
                 "fraction"});
    const double tasks = spans["pool.task"];
    m.push_back({"runtime.pool.mfg_frac",
                 tasks > 0.0 ? (tasks - trial) / tasks : 0.0, "fraction"});
    m.push_back({"runtime.idle_frac",
                 1.0 - tasks / (traced.wallSec *
                                static_cast<double>(kWorkers)),
                 "fraction"});
    m.push_back({"runtime.trace_overhead_frac",
                 traced.wallSec / plain.wallSec - 1.0, "fraction"});
    workload.check(checks);
    return m;
}

/** Wall seconds of one child process; NaN when it failed. */
double
timeChild(const std::vector<std::string> &args)
{
    std::vector<char *> argv;
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    const auto start = Clock::now();
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0)
        return std::nan("");
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
        if (errno != EINTR)
            return std::nan("");
    }
    const double sec = secondsSince(start);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? sec
                                                         : std::nan("");
}

/**
 * Fill the per-process lazy state a run would otherwise pay for in its
 * first timed round (field spectra, application tables) by
 * manufacturing one die and drawing one workload. Building the
 * workload and this are a run's set-up; a child process does only
 * that for setup_s.
 */
void
warmUp(const Workload &workload, std::uint64_t seed)
{
    const ProbeSpec &spec = workload.probe();
    const Die die(spec.params, deriveSeed(seed, 0x5E7));
    Rng rng(seed);
    randomWorkload(spec.threads, rng, spec.pool);
}

double
peakRssMb()
{
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return std::nan("");
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: varsched_bench --workload "
                 "mfg_lot|dvfs_sann|dvfs_linopt|longhorizon --seed N "
                 "--seconds T --trace 0|1 [--scale F] [--trace-out PATH]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    std::string seedArg;
    std::string scaleArg = "1";
    std::string tracePath;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    double scale = 1.0;
    int traceMode = -1;
    bool setupOnly = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        char *end = nullptr;
        if (arg == "--setup-only") {
            setupOnly = true;
        } else if (!hasValue) {
            return usage();
        } else if (arg == "--workload") {
            name = argv[++i];
        } else if (arg == "--seed") {
            seedArg = argv[++i];
            seed = std::strtoull(seedArg.c_str(), &end, 10);
            if (*end != '\0' || seedArg.empty())
                return usage();
        } else if (arg == "--seconds") {
            seconds = std::strtod(argv[++i], &end);
            if (*end != '\0' || !(seconds > 0.0))
                return usage();
        } else if (arg == "--trace") {
            const std::string v = argv[++i];
            if (v != "0" && v != "1")
                return usage();
            traceMode = v == "1";
        } else if (arg == "--scale") {
            scaleArg = argv[++i];
            scale = std::strtod(scaleArg.c_str(), &end);
            if (*end != '\0' || !(scale > 0.0) || scale > 1.0)
                return usage();
        } else if (arg == "--trace-out") {
            tracePath = argv[++i];
        } else {
            return usage();
        }
    }
    auto workload = makeWorkload(name, seed, scale);
    if (seedArg.empty() || workload == nullptr ||
        (!setupOnly && (traceMode < 0 || seconds <= 0.0)))
        return usage();
    warmUp(*workload, seed);
    if (setupOnly)
        return 0;

    Checks checks;
    std::vector<Metric> metrics;

    if (traceMode == 1) {
        if (tracePath.empty())
            tracePath = "benchmark/out/trace-" + name + ".json";
        metrics = tracedPass(*workload, seed, seconds, tracePath, checks);
    } else {
        std::vector<double> setupSec;
        for (std::size_t k = 0; k < kSetupReps; ++k) {
            const double sec =
                timeChild({argv[0], "--setup-only", "--workload", name,
                           "--seed", seedArg, "--scale", scaleArg});
            checks.expect(std::isfinite(sec), "setup child exits cleanly");
            if (std::isfinite(sec))
                setupSec.push_back(sec);
        }

        // Timed rounds: run until the next round would likely end past
        // the budget, but at least the digest rounds. Throughput is
        // total work over total time: on a host whose speed swings
        // from round to round, that is steadier than the median round.
        Digest digest;
        double units = 0.0;
        std::size_t r = 0;
        const auto start = Clock::now();
        for (;; ++r) {
            const double elapsed = secondsSince(start);
            if (r >= kDigestRounds &&
                elapsed * (r + 1) / static_cast<double>(r) > seconds)
                break;
            units += workload->runRound(r, r < kDigestRounds ? &digest
                                                             : nullptr)
                         .units;
        }
        const double wall = secondsSince(start);
        workload->check(checks);
        std::printf("info %s rounds=%zu wall_s=%.3f unit=%s\n", name.c_str(),
                    r, wall, workload->unit());
        std::printf("digest %s %016llx\n", name.c_str(),
                    static_cast<unsigned long long>(digest.hash));
        metrics = {
            {"work_per_s", units / wall, "1/s"},
            {"peak_rss_mb", peakRssMb(), "MiB"},
            {"setup_s", median(setupSec), "s"},
        };
    }

    bool finite = true;
    for (const Metric &m : metrics)
        finite = finite && std::isfinite(m.value);
    checks.expect(finite, "every reported metric is finite");

    std::string json = "{\"correct\": ";
    json += checks.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(checks.attempted);
    json += ", \"failed\": " + std::to_string(checks.failed);
    json += ", \"metrics\": {";
    char buf[128];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        const double value = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s %s %.17g %s\n", m.name.c_str(), name.c_str(), value,
                    m.unit.c_str());
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i > 0 ? ", " : "", m.name.c_str(), value,
                      m.unit.c_str());
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
