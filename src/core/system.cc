#include "core/system.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "solver/rng.hh"

#include "runtime/metrics.hh"
#include "runtime/trace.hh"

#include "core/exhaustive.hh"
#include "core/linopt.hh"
#include "core/metrics.hh"
#include "core/parallel.hh"
#include "core/sann.hh"
#include "reliability/wearout.hh"

namespace varsched
{

namespace
{

/** Require a positive timing/budget parameter. */
void
requirePositive(double value, const char *name)
{
    if (!(value > 0.0)) {
        throw std::invalid_argument(
            std::string("SystemConfig::") + name +
            " must be > 0 (got " + std::to_string(value) + ")");
    }
}

/** Require @p intervalMs to be a whole multiple of the tick. */
void
requireMultipleOfTick(double intervalMs, double tickMs,
                      const char *name)
{
    const double ratio = intervalMs / tickMs;
    if (std::abs(ratio - std::round(ratio)) > 1e-6 * ratio) {
        throw std::invalid_argument(
            std::string("SystemConfig::") + name + " (" +
            std::to_string(intervalMs) +
            " ms) must be a whole multiple of tickMs (" +
            std::to_string(tickMs) + " ms)");
    }
}

} // namespace

void
validateSystemConfig(const SystemConfig &config, std::size_t numCores)
{
    requirePositive(config.tickMs, "tickMs");
    requirePositive(config.durationMs, "durationMs");
    requirePositive(config.osIntervalMs, "osIntervalMs");
    requirePositive(config.dvfsIntervalMs, "dvfsIntervalMs");
    requireMultipleOfTick(config.dvfsIntervalMs, config.tickMs,
                          "dvfsIntervalMs");
    requireMultipleOfTick(config.osIntervalMs, config.tickMs,
                          "osIntervalMs");
    if (config.pm != PmKind::None)
        requirePositive(config.ptargetW, "ptargetW");
    for (const SensorFaultSpec &s : config.faults.sensorFaults) {
        if (s.coreId >= numCores) {
            throw std::invalid_argument(
                "FaultSpec sensor fault names core " +
                std::to_string(s.coreId) + " but the die has only " +
                std::to_string(numCores) + " cores");
        }
    }
    for (const CoreFailureSpec &f : config.faults.coreFailures) {
        if (f.coreId >= numCores) {
            throw std::invalid_argument(
                "FaultSpec core failure names core " +
                std::to_string(f.coreId) + " but the die has only " +
                std::to_string(numCores) + " cores");
        }
    }
    if (config.phaseSampling.enabled) {
        if (config.transientThermal) {
            throw std::invalid_argument(
                "SystemConfig::phaseSampling requires the steady-state "
                "thermal mode (transientThermal integrates every tick "
                "and cannot be extrapolated)");
        }
        if (config.guardedPm) {
            throw std::invalid_argument(
                "SystemConfig::phaseSampling is incompatible with "
                "guardedPm (the guard cross-checks every settled "
                "tick)");
        }
        if (!(config.phaseSampling.basisBlend > 0.0) ||
            config.phaseSampling.basisBlend > 1.0) {
            throw std::invalid_argument(
                "SystemConfig::phaseSampling.basisBlend must be in "
                "(0, 1]");
        }
    }
}

const char *
pmKindName(PmKind kind)
{
    switch (kind) {
      case PmKind::None: return "None";
      case PmKind::FoxtonStar: return "Foxton*";
      case PmKind::LinOpt: return "LinOpt";
      case PmKind::SAnn: return "SAnn";
      case PmKind::Exhaustive: return "Exhaustive";
      case PmKind::LinOptMaxMin: return "LinOptMaxMin";
      default: return "?";
    }
}

std::unique_ptr<PowerManager>
makePowerManager(PmKind kind, std::size_t sannEvals, std::uint64_t seed,
                 PmObjective objective)
{
    switch (kind) {
      case PmKind::None:
        return std::make_unique<MaxLevelManager>();
      case PmKind::FoxtonStar:
        return std::make_unique<FoxtonStarManager>();
      case PmKind::LinOpt: {
        LinOptConfig config;
        config.objective = objective;
        return std::make_unique<LinOptManager>(config);
      }
      case PmKind::SAnn: {
        SAnnConfig config;
        config.maxEvals = sannEvals;
        config.seed = seed;
        config.objective = objective;
        return std::make_unique<SAnnManager>(config);
      }
      case PmKind::Exhaustive:
        return std::make_unique<ExhaustiveManager>(20'000'000,
                                                   objective);
      case PmKind::LinOptMaxMin:
        return std::make_unique<LinOptMaxMinManager>();
    }
    return nullptr;
}

SystemSimulator::SystemSimulator(const Die &die,
                                 std::vector<const AppProfile *> apps,
                                 const SystemConfig &config)
    : die_(die), apps_(std::move(apps)), config_(config),
      evaluator_(die)
{
    validateSystemConfig(config_, die_.numCores());
    if (apps_.empty())
        throw std::invalid_argument("SystemSimulator needs >= 1 app");
    if (apps_.size() > die_.numCores()) {
        throw std::invalid_argument(
            "SystemSimulator: " + std::to_string(apps_.size()) +
            " threads exceed the die's " +
            std::to_string(die_.numCores()) + " cores");
    }
}

namespace
{

/** |a - b| relative to the larger magnitude (0 when both are 0). */
double
relDiff(double a, double b)
{
    const double denom = std::max(std::abs(a), std::abs(b));
    return denom > 0.0 ? std::abs(a - b) / denom : 0.0;
}

/**
 * Apply @p op(field of @p into, same field of @p from) to every field
 * of a condition, vectors element by element (a size mismatch copies
 * @p from's vector over instead).
 */
template <typename Op>
void
combineCondition(ChipCondition &into, const ChipCondition &from, Op op)
{
    const auto vec = [&op](std::vector<double> &a,
                           const std::vector<double> &b) {
        if (a.size() != b.size()) {
            a = b;
            return;
        }
        for (std::size_t i = 0; i < a.size(); ++i)
            op(a[i], b[i]);
    };
    vec(into.corePowerW, from.corePowerW);
    vec(into.coreTempC, from.coreTempC);
    vec(into.coreFreqHz, from.coreFreqHz);
    vec(into.coreIpc, from.coreIpc);
    vec(into.coreMips, from.coreMips);
    vec(into.l2TempC, from.l2TempC);
    op(into.l2PowerW, from.l2PowerW);
    op(into.totalPowerW, from.totalPowerW);
    op(into.totalMips, from.totalMips);
    op(into.spreaderC, from.spreaderC);
    op(into.sinkC, from.sinkC);
}

/**
 * A boundary jump beyond this multiple of the learned noise floor
 * (or of the error budget, until the floor is learned) is a regime
 * change, not jitter: the basis is reseeded instead of blended.
 */
constexpr double kJumpFloorSigma = 5.0;

/**
 * Error metric for sampling control: the budget is promised on power,
 * energy AND ED^2, and ED^2 is twice as sensitive to a throughput
 * error as energy is to a power error (delay enters squared) — so
 * MIPS deviations count double.
 */
double
metricErr(const ChipCondition &a, double powerW, double mips)
{
    return std::max(relDiff(a.totalPowerW, powerW),
                    2.0 * relDiff(a.totalMips, mips));
}

/**
 * The run's sampler tuning. Cheap controllers are never worth
 * sampling: their decision costs nothing to run, and skipping it
 * freezes the dither a quantised controller needs to explore adjacent
 * fixpoints (see PowerManager::cheapDecision). Their sampled runs are
 * demoted to a zero budget, which never extrapolates — bit-identical
 * to the exact engine, zero est_err — keeping the churn tolerance the
 * budget implied, so the sampler's telemetry still reports the phase
 * churn.
 */
PhaseSamplingConfig
runSamplerConfig(const SystemConfig &config, const PowerManager &manager)
{
    PhaseSamplingConfig cfg = config.phaseSampling;
    if (cfg.enabled && config.pm != PmKind::None &&
        manager.cheapDecision()) {
        cfg.maxChurnFraction = phaseChurnTolerance(cfg);
        cfg.errorBudget = 0.0;
    }
    return cfg;
}

/** Ticks in @p ms, at least 1. */
std::size_t
periodTicks(double ms, double tickMs)
{
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(ms / tickMs)));
}

/** What the stages learn about one tick as it runs. */
struct Tick
{
    std::size_t index = 0;
    /** A DVFS epoch starts on this tick. */
    bool dvfsBoundary = false;
    /** The epoch is decided and settled, not extrapolated. */
    bool epochEval = true;
    /** The sampler knocked a stale basis out on this tick. */
    bool forcedResample = false;
    /** The tick replays the extrapolation basis. */
    bool extrap = false;
};

/**
 * One run of the Fig 2 tick loop: the run-local state and the stages
 * SystemSimulator::run drives on every event tick — faults and
 * scheduling, the power manager's epoch, the settle (or the sampled
 * engine's extrapolation, with its basis upkeep), accumulation — the
 * replay of the quiet ticks up to the next event, and, once, the
 * final aggregation. Without @ref sampled no sampler work is done.
 */
struct TickRun
{
    TickRun(const Die &die, const std::vector<const AppProfile *> &apps,
            const SystemConfig &config, ChipEvaluator &evaluator,
            PowerManager &manager, GuardedPowerManager *guard);
    // cond points into the run itself.
    TickRun(const TickRun &) = delete;
    TickRun &operator=(const TickRun &) = delete;

    void scheduleStage(const Tick &t);
    void epochStage(Tick &t);
    void settleStage(Tick &t);
    void basisUpkeep(const Tick &t, bool resettled, double prePowerW,
                     double preMips);
    void accumulateStage(const Tick &t);
    std::size_t quietTicksAfter(const Tick &t) const;
    void replay(const Tick &t, std::size_t ticks);
    SystemResult finalise();

    void addTicks(std::size_t first, std::size_t ticks, double mips,
                  bool extrap);
    std::size_t firstTickAtOrAfter(double ms) const;

    bool settleSteady();
    void hold(const ChipCondition &src, bool fresh = false);
    void refreshWork();
    void buildSignature();

    const Die &die;
    const std::vector<const AppProfile *> &apps;
    const SystemConfig &config;
    ChipEvaluator &evaluator;
    PowerManager &manager;
    /** Set when the manager is guarded (not owning). */
    GuardedPowerManager *const guard;
    const bool sampled;
    const std::size_t numCores;
    const std::size_t numThreads;
    const std::size_t totalTicks;
    const std::size_t osPeriod;
    const std::size_t dvfsPeriod;
    const double pcoreMax;
    const double uniFreq;

    Rng rng;
    FaultInjector injector;
    /** The injector when it has sensor faults to apply, else null: a
     *  fault-free tamper call returns its input and draws nothing. */
    SensorTamper *const tamper;
    /** The manager's input, refilled in place every DVFS epoch. */
    ChipSnapshot snap;
    /** Per-thread phase sequencers. */
    std::vector<PhaseSequencer> phases;
    /** Per thread, the tick whose phase advance draws its next phase. */
    std::vector<std::size_t> phaseDrawTick;

    std::vector<std::size_t> assignment; // thread -> core (or kNoCore)
    std::vector<CoreWork> work;
    std::vector<int> coreLevels;
    std::vector<bool> coreOk;
    /** The condition the run holds: steady, extrapCond or transient
     *  (null before the first settle). */
    const ChipCondition *cond = nullptr;
    /** The transient-thermal run's chip, stepped every tick. */
    ChipCondition transient;
    // The per-core work, and the signature built from it, change only
    // when a thread changes phase or core, a core dies or a level
    // moves: rebuild them then, not on every tick.
    bool workDirty = true, sigDirty = true;

    // Steady-state condition cache: `steady` holds the pristine
    // solution of the last settled (work, levels) pair. When the
    // inputs are unchanged since that solve, the solution is reused
    // verbatim — bit-identical to re-evaluating, since evaluate() is
    // a pure function of its inputs. Misses warm-start the fixed
    // point from the previous solution when configured, and leave the
    // solution they replaced in `prevSteady`.
    ChipCondition steady, prevSteady;
    std::vector<CoreWork> cachedWork;
    std::vector<int> cachedLevels;
    bool cacheValid = false;

    // Set when the held source changes, a settle lands in it, or the
    // work or levels change: the tick's metric contributions are
    // recomputed then and re-added on other ticks.
    bool tickDirty = true;
    // The MIPS the last tick reported: the held condition's, less its
    // transition stall. The stall is charged here and to the sums,
    // never to the held condition.
    double reportedMips = 0.0;

    // Phase sampler and its extrapolation basis.
    const PhaseSamplingConfig samplerCfg;
    PhaseSampler sampler;
    std::vector<std::uint64_t> sig;
    std::vector<std::size_t> basisAssignment;
    bool wasExtrapolating = false;
    // Statistical extrapolation basis: an EWMA over epoch-boundary
    // settles of the current steady phase. Extrapolated ticks replay
    // this condition; blending (vs copying the last settle) averages
    // the power manager's sensor-noise limit cycle out of it.
    ChipCondition extrapCond;
    // Learned per-boundary jump amplitude of the current phase (EWMA
    // of |fresh settle - basis|). Separates the controller's
    // stationary jitter (jumps near the floor: blend them away) from
    // a move to a new operating regime (a jump far above the floor:
    // reseed the basis), and feeds the sampling-depth control with a
    // smooth wander estimate instead of single noisy draws.
    double noiseFloor = 0.0;
    bool noiseFloorValid = false;
    // Basis metrics stashed when the pre-decision restore replaces an
    // extrapolated condition with the true settle: est_err must score
    // the basis the skipped ticks actually reported, not the restored
    // truth.
    double preBasisPowerW = 0.0, preBasisMips = 0.0;
    bool haveBasisForEst = false;
    // DVFS epochs begun; each one is evaluated or, when sampled,
    // possibly extrapolated.
    std::uint64_t dvfsEpochs = 0;

    // Accumulators.
    SystemResult result;
    double sumMips = 0.0, sumWeighted = 0.0, sumProgress = 0.0,
           sumPower = 0.0, sumMinThread = 0.0;
    double sumFreq = 0.0, sumDev = 0.0;
    double transitionSteps = 0.0;
    // Level steps per evaluated decision (EWMA): the transition stall
    // an extrapolated epoch's skipped decision is charged.
    double meanDecisionSteps = 0.0;
    double transitionLostMipsMs = 0.0;
    const WearoutModel wearoutModel;
    WearoutTracker wearout;
    std::vector<double> coreVdd;
    double tickMinThread = 0.0, tickWeighted = 0.0, tickProgress = 0.0,
           tickFreq = 0.0, tickDev = 0.0;

    // Ticks on which a scheduled core failure falls due, ascending;
    // failures are polled from the first of them on.
    std::vector<std::size_t> failureTicks;
};

TickRun::TickRun(const Die &die,
                 const std::vector<const AppProfile *> &apps,
                 const SystemConfig &config, ChipEvaluator &evaluator,
                 PowerManager &manager, GuardedPowerManager *guard)
    : die(die), apps(apps), config(config), evaluator(evaluator),
      manager(manager), guard(guard),
      sampled(config.phaseSampling.enabled),
      numCores(die.numCores()), numThreads(apps.size()),
      totalTicks(static_cast<std::size_t>(
          std::llround(config.durationMs / config.tickMs))),
      osPeriod(periodTicks(config.osIntervalMs, config.tickMs)),
      dvfsPeriod(periodTicks(config.dvfsIntervalMs, config.tickMs)),
      pcoreMax(config.pcoreMaxW > 0.0
                   ? config.pcoreMaxW
                   : 2.0 * config.ptargetW /
                       static_cast<double>(numThreads)),
      uniFreq(config.uniformFrequency ? die.uniformFreq() : 0.0),
      rng(config.seed),
      // Seeded independently of the main stream so enabling a fault
      // schedule does not perturb placement/phase/noise draws.
      injector(config.faults,
               config.seed * 0x9e3779b97f4a7c15ull ^ 0xFA0175EEDull),
      tamper(config.faults.sensorFaults.empty() ? nullptr : &injector),
      work(numCores), coreLevels(numCores,
                                 static_cast<int>(die.maxLevel())),
      coreOk(numCores, true),
      samplerCfg(runSamplerConfig(config, manager)),
      sampler(samplerCfg, numCores), sig(numCores, 0),
      wearout(wearoutModel, numCores), coreVdd(numCores, 0.0)
{
    // A discarded fork: it keeps placements and phases on the streams
    // every recorded result was drawn from.
    (void)rng.fork(0xDEAD);
    phases.reserve(numThreads);
    for (std::size_t t = 0; t < numThreads; ++t) {
        phases.emplace_back(*apps[t], rng.fork(100 + t));
        // Tick 0 ends with the first advance.
        phaseDrawTick.push_back(phases[t].ticksToBoundary(config.tickMs) -
                                1);
    }
    for (const CoreFailureSpec &f : config.faults.coreFailures) {
        const std::size_t tick = firstTickAtOrAfter(f.atMs);
        if (tick < totalTicks)
            failureTicks.push_back(tick);
    }
    std::sort(failureTicks.begin(), failureTicks.end());
}

/** The first tick whose start time reaches @p ms (totalTicks: none). */
std::size_t
TickRun::firstTickAtOrAfter(double ms) const
{
    if (std::isnan(ms))
        return totalTicks;
    if (!(ms > 0.0))
        return 0;
    // The estimate, then the exact comparison the loop makes.
    std::size_t tick = static_cast<std::size_t>(std::min(
        std::ceil(ms / config.tickMs), static_cast<double>(totalTicks)));
    while (tick > 0 && static_cast<double>(tick - 1) * config.tickMs >= ms)
        --tick;
    while (tick < totalTicks &&
           static_cast<double>(tick) * config.tickMs < ms)
        ++tick;
    return tick;
}

void
TickRun::hold(const ChipCondition &src, bool fresh)
{
    tickDirty = tickDirty || fresh || cond != &src;
    cond = &src;
}

/** Settle the steady state; true when the settle replaced an earlier
 *  one. */
bool
TickRun::settleSteady()
{
    if (cacheValid && coreLevels == cachedLevels && work == cachedWork) {
        hold(steady);
        return false;
    }
    TRACE_SCOPE("physics.settle");
    evaluator.evaluateInto(
        prevSteady, work, coreLevels, uniFreq,
        config.warmStartThermal && cacheValid ? &steady : nullptr);
    std::swap(steady, prevSteady);
    cachedWork = work;
    cachedLevels = coreLevels;
    hold(steady, true);
    return std::exchange(cacheValid, true);
}

void
TickRun::refreshWork()
{
    for (auto &w : work)
        w = CoreWork{};
    for (std::size_t t = 0; t < numThreads; ++t) {
        // Parked threads, and threads whose core died since the
        // last OS interval, make no progress.
        if (assignment[t] == kNoCore || !coreOk[assignment[t]])
            continue;
        const Phase &ph = phases[t].current();
        CoreWork w;
        w.app = apps[t];
        w.cpiScale = ph.cpiScale;
        w.missScale = ph.missScale;
        w.activityScale = ph.activityScale;
        work[assignment[t]] = w;
    }
}

/**
 * Per-core operating-point signature: which app runs where, at which
 * quantised phase scales, at which DVFS level. Folding the level in
 * matters: while the power manager is still converging onto Ptarget
 * the workload looks steady but the chip is not, and extrapolating
 * across those decisions locks in the transient. Word 0 is reserved
 * for empty cores so the distance metric can tell occupancy apart
 * from drift.
 */
void
TickRun::buildSignature()
{
    if (!sigDirty)
        return;
    sigDirty = false;
    for (std::size_t c = 0; c < numCores; ++c) {
        const CoreWork &w = work[c];
        if (w.app == nullptr) {
            sig[c] = 0;
            continue;
        }
        std::uint64_t h = phaseMix(
            0xC0DE, static_cast<std::uint64_t>(
                        reinterpret_cast<std::uintptr_t>(w.app)));
        h = phaseMix(h, phaseQuantise(w.cpiScale));
        h = phaseMix(h, phaseQuantise(w.missScale));
        h = phaseMix(h, phaseQuantise(w.activityScale));
        h = phaseMix(h, static_cast<std::uint64_t>(coreLevels[c] + 1));
        sig[c] = h != 0 ? h : 1;
    }
}

/**
 * Faults and scheduling: fail the cores whose time has come, revisit
 * the thread placement on an OS interval, rebuild the per-core work,
 * and settle once before the first decision.
 */
void
TickRun::scheduleStage(const Tick &t)
{
    injector.advanceTo(static_cast<double>(t.index) * config.tickMs);
    const bool failuresDue =
        !failureTicks.empty() && t.index >= failureTicks.front();
    for (std::size_t c = 0; failuresDue && c < numCores; ++c) {
        if (coreOk[c] && injector.coreFailed(c)) {
            coreOk[c] = false;
            workDirty = true;
            if (sampled) {
                sampler.invalidate(PhaseInvalidation::Fault);
                TRACE_INSTANT("phase.invalidate.fault");
            }
        }
    }

    // OS scheduling interval: revisit thread placement. The
    // ThermalAware extension consumes the live temperature map
    // (activity migration); cold start falls back to Random.
    // Threads on cores that failed since the last interval are
    // remapped here (failed cores are masked out of the pools).
    if (t.index % osPeriod == 0) {
        TRACE_SCOPE("sched.place");
        if (config.sched == SchedAlgo::ThermalAware && cond != nullptr) {
            assignment = scheduleThreadsThermal(die, apps, cond->coreTempC,
                                                rng, &coreOk);
        } else {
            assignment =
                scheduleThreads(config.sched, die, apps, rng, &coreOk);
        }
        workDirty = true;
        // A remap moves heat and work across cores: the frozen
        // basis no longer describes the chip. The workload mix is
        // unchanged though — only the mapping stepped — so this is
        // a resample (evaluate exactly until a quiet boundary, no
        // warmup), not a phase loss: the per-tick signature knocks
        // the stale basis out on this very tick and the settled
        // state after the remap refreezes it.
        if (sampled && sampler.steady() &&
            assignment != basisAssignment) {
            sampler.resample(PhaseInvalidation::Remap);
            TRACE_INSTANT("phase.resample.remap");
        }
    }
    if (workDirty) {
        refreshWork();
        workDirty = false;
        sigDirty = true;
        tickDirty = true;
    }
    // First tick: settle once before the power manager reads its
    // sensors (a transient run steps on from this settle).
    if (cond == nullptr)
        settleSteady();
}

/**
 * The power manager's epoch: the sampler's verdict on the epoch and
 * the tick's signature, then — on an evaluated DVFS boundary — fresh
 * sensors (read through the fault injector), the manager's decision,
 * and the chosen levels pushed through the (possibly faulty)
 * actuators. Extrapolated epochs skip the manager entirely: the
 * frozen levels stand in for its decision.
 */
void
TickRun::epochStage(Tick &t)
{
    // Epoch decision first, then the per-tick signature: a forced
    // resample observed on an epoch-boundary tick must override the
    // epoch's extrapolation verdict, never the reverse.
    if (t.dvfsBoundary)
        ++dvfsEpochs;
    if (sampled) {
        if (t.dvfsBoundary)
            t.epochEval = sampler.beginEpochEvaluate();
        buildSignature();
        t.forcedResample = sampler.observeTick(sig);
    }
    if (config.pm == PmKind::None || !t.dvfsBoundary || !t.epochEval)
        return;

    // The manager's snapshot must come from a *settled* chip, never
    // from the statistical basis: the extrapolated condition is a
    // blend, and feeding it back into the decision loop parks
    // quantised controllers on sticky fixpoints the exact run's dither
    // would have knocked them off (a systematic, not zero-mean,
    // error). Within a steady phase the (work, levels) pair is
    // unchanged since the last evaluated settle, so this restore is a
    // condition-cache hit — free.
    if (sampled && wasExtrapolating && !config.transientThermal) {
        preBasisPowerW = cond->totalPowerW;
        preBasisMips = reportedMips;
        haveBasisForEst = true;
        settleSteady();
    }
    TRACE_SCOPE("pm.decide");
    const std::uint64_t epochIndex = t.index / dvfsPeriod;
    TRACE_INSTANT("pm.epoch", "epoch", static_cast<double>(epochIndex));
    Rng epochNoise(deriveSeed(config.seed, 0x4E01, epochIndex));
    manager.beginEpoch(epochIndex);
    buildSnapshotInto(snap, evaluator, work, *cond, config.ptargetW,
                      pcoreMax, &epochNoise, tamper);
    const std::vector<int> &active = manager.selectLevels(snap);
    std::size_t decisionSteps = 0;
    for (std::size_t i = 0; i < snap.cores.size(); ++i) {
        const std::size_t core = snap.cores[i].coreId;
        const int applied =
            injector.actuate(core, coreLevels[core], active[i]);
        decisionSteps += static_cast<std::size_t>(
            std::abs(applied - coreLevels[core]));
        sigDirty = sigDirty || applied != coreLevels[core];
        coreLevels[core] = applied;
    }
    tickDirty = tickDirty || decisionSteps > 0;
    const auto steps = static_cast<double>(decisionSteps);
    transitionSteps += steps;
    meanDecisionSteps += samplerCfg.basisBlend * (steps - meanDecisionSteps);
    // No level-swing criterion: an optimiser on a degenerate manifold
    // walks cores across levels while the settled output barely
    // moves. The basis upkeep judges the output against the phase's
    // learned jitter.
}

/**
 * Physics for this tick: settle exactly, or extrapolate the frozen
 * settled condition across the steady phase.
 */
void
TickRun::settleStage(Tick &t)
{
    t.extrap = sampled && sampler.extrapolating();
    if (t.extrap) {
        // Replay the statistical basis, which changes only on
        // evaluated ticks.
        hold(extrapCond);
        sampler.noteExtrapolatedTicks(1);
        return;
    }
    const double prePowerW =
        haveBasisForEst ? preBasisPowerW : cond->totalPowerW;
    const double preMips = haveBasisForEst ? preBasisMips : reportedMips;
    haveBasisForEst = false;
    bool resettled = false;
    if (config.transientThermal) {
        TRACE_SCOPE("physics.transient");
        transient = evaluator.evaluateTransient(work, coreLevels, *cond,
                                                config.tickMs, uniFreq);
        hold(transient, true);
    } else {
        resettled = settleSteady();
    }
    if (sampled)
        basisUpkeep(t, resettled, prePowerW, preMips);
}

/**
 * The sampled engine's upkeep after an exact settle: refreeze the
 * basis signature, maintain the statistical basis and the phase's
 * noise floor, and score the extrapolation that just ended.
 * @p prePowerW / @p preMips are what the previous tick reported.
 */
void
TickRun::basisUpkeep(const Tick &t, bool resettled, double prePowerW,
                     double preMips)
{
    TRACE_SCOPE("phase.basis");
    const bool steadyBefore = sampler.steady();
    // Refreeze on the *post-decision* signature: the power manager may
    // have just moved levels, and the basis must describe the
    // operating point that was settled.
    buildSignature();
    sampler.freezeBasis(sig);
    basisAssignment = assignment;
    // Maintain the statistical basis: reset onto the fresh settle when
    // the operating point jumped (first settle, unsteady spell, forced
    // resample); otherwise blend one sample per epoch boundary, so the
    // basis tracks the phase's settled statistics rather than
    // whichever noisy decision came last.
    double ctlErr = 0.0;
    bool ctlScored = false;
    if (!steadyBefore || t.forcedResample) {
        extrapCond = *cond;
        // The noise floor survives same-phase reseeds (signature
        // churn, remap): the controller's jitter amplitude belongs to
        // the phase, not to any one basis, and wiping it would
        // collapse the jump thresholds back to the budget — making the
        // regime detector misfire on the very next normal decision.
        // Only a lost phase (fresh warmup, !steadyBefore) starts the
        // estimate over.
        if (!steadyBefore)
            noiseFloorValid = false;
        // A reseed on a decision boundary holds the one decision taken
        // right after a remap or phase change: the first step of the
        // controller's re-convergence. Check it before extrapolating.
        if (steadyBefore && t.dvfsBoundary)
            sampler.verifyNextEpoch();
    } else if (!t.dvfsBoundary) {
        // Same decision, new settle: the workload drifted under the
        // churn tolerance. Carry the drift into the basis, or it keeps
        // the older workload.
        if (resettled) {
            combineCondition(extrapCond, steady,
                             [](double &a, double b) { a += b; });
            combineCondition(extrapCond, prevSteady,
                             [](double &a, double b) { a -= b; });
        }
    } else if (samplerCfg.errorBudget > 0.0) {
        const double jump =
            metricErr(*cond, extrapCond.totalPowerW, extrapCond.totalMips);
        const double floorRef =
            std::max(noiseFloorValid ? noiseFloor : 0.0,
                     samplerCfg.errorBudget);
        if (jump > kJumpFloorSigma * floorRef) {
            // The settled point moved far beyond the phase's own
            // jitter: a control transient (the manager re-converging
            // onto Ptarget), not decision noise. Level swings cannot
            // flag this — the optimiser's solution space is degenerate
            // enough that a near-identical level vector can land at a
            // very different power. Reseed the basis on the fresh
            // settle and re-verify the new regime at the initial
            // sampling period; the workload phase itself is unchanged,
            // so steadiness is kept and no warmup is paid.
            sampler.resample(PhaseInvalidation::DvfsChange);
            TRACE_INSTANT("phase.resample.regime", "jump", jump);
            extrapCond = *cond;
            ctlErr = samplerCfg.basisBlend * jump;
            ctlScored = true;
        } else {
            const double w = samplerCfg.basisBlend;
            combineCondition(extrapCond, *cond, [w](double &a, double b) {
                a += w * (b - a);
            });
            if (noiseFloorValid)
                noiseFloor += samplerCfg.basisBlend * (jump - noiseFloor);
            else
                noiseFloor = jump;
            noiseFloorValid = true;
            // Expected per-boundary basis wander: what the checkpoint
            // weighs against the budget to deepen, hold, or back off
            // the period.
            ctlErr = samplerCfg.basisBlend * noiseFloor;
            ctlScored = true;
        }
    }
    if (wasExtrapolating) {
        // Score the extrapolation just ended: the point error funds
        // est_err, the basis drift drives the period adaptation.
        const double estErr = metricErr(*cond, prePowerW, preMips);
        TRACE_INSTANT("phase.checkpoint", "est_err", estErr);
        sampler.checkpoint(estErr, ctlErr, t.dvfsBoundary);
    } else if (ctlScored) {
        // Consecutive evaluated boundaries adapt the period too: after
        // a convergence spell the sampler would otherwise re-enter
        // extrapolation at the initial (shallowest) period no matter
        // how quiet the phase has become, paying several extra
        // evaluations before the depth recovers.
        sampler.checkpoint(0.0, ctlErr, true);
    }
}

/**
 * Accumulate the tick: charge the voltage-transition stall, add the
 * tick's metric contributions (and close the guard's loop), and let
 * the application phases drift.
 */
void
TickRun::accumulateStage(const Tick &t)
{
    // Voltage-transition stall: each changed step blocks its core for
    // transitionUsPerStep; charge the chip-average MIPS for the
    // blocked time within this tick. The exact run pays a stall at
    // every decision, so a skipped one is charged the learned mean.
    if (t.dvfsBoundary && !t.epochEval && config.pm != PmKind::None)
        transitionSteps += meanDecisionSteps;
    double mips = cond->totalMips;
    if (transitionSteps > 0 && config.transitionUsPerStep > 0.0) {
        const double stallMs = std::min(
            config.tickMs, static_cast<double>(transitionSteps) *
                               config.transitionUsPerStep * 1e-3 /
                               static_cast<double>(numThreads));
        transitionLostMipsMs += mips * stallMs;
        mips *= 1.0 - stallMs / config.tickMs;
    }
    transitionSteps = 0.0;

    if (tickDirty) {
        tickDirty = false;
        tickMinThread = 1e300;
        for (std::size_t c = 0; c < numCores; ++c) {
            result.maxCoreTempC =
                std::max(result.maxCoreTempC, cond->coreTempC[c]);
            coreVdd[c] = 0.0;
            if (work[c].app == nullptr)
                continue;
            tickMinThread = std::min(tickMinThread, cond->coreMips[c]);
            coreVdd[c] =
                die.voltage(static_cast<std::size_t>(coreLevels[c]));
        }
        tickWeighted = weightedThroughput(*cond, work);
        tickProgress = weightedProgress(*cond, work);
        tickFreq = averageActiveFrequency(*cond, work);
        if (config.pm != PmKind::None)
            tickDev = std::abs(cond->totalPowerW - config.ptargetW) /
                config.ptargetW;
        wearout.accumulate(cond->coreTempC, coreVdd, config.tickMs);
    } else {
        wearout.repeat(config.tickMs);
    }
    addTicks(t.index, 1, mips, t.extrap);
    wasExtrapolating = t.extrap;

    // Phase drift. A thread's draw tick is the one whose advance draws
    // its next phase; runs of quiet ticks stop short of it.
    for (std::size_t th = 0; th < numThreads; ++th) {
        PhaseSequencer &seq = phases[th];
        const std::size_t phaseBefore = seq.currentIndex();
        seq.advance(config.tickMs);
        workDirty = workDirty || seq.currentIndex() != phaseBefore;
        if (phaseDrawTick[th] == t.index)
            phaseDrawTick[th] =
                t.index + seq.ticksToBoundary(config.tickMs);
    }
}

/**
 * Add @p ticks ticks of the held condition from tick @p first on, each
 * reporting @p mips, to the run's sums and trace: one add per tick and
 * sum, in tick order, as ticks run one by one would. Never a product
 * with the tick count, which rounds differently. The guard scores the
 * same ticks on the settled (regulator-side) power.
 */
void
TickRun::addTicks(std::size_t first, std::size_t ticks, double mips,
                  bool extrap)
{
    const double powerW = cond->totalPowerW;
    const double energyJ = powerW * config.tickMs * 1e-3;
    const double instructions = mips * 1.0e6 * config.tickMs * 1e-3;
    for (std::size_t n = 0; n < ticks; ++n) {
        sumMinThread += tickMinThread;
        sumMips += mips;
        sumWeighted += tickWeighted;
        sumProgress += tickProgress;
        sumPower += powerW;
        sumFreq += tickFreq;
        sumDev += tickDev;
        result.energyJ += energyJ;
        result.instructions += instructions;
    }
    appendPowerRun(result.powerTrace, powerW, ticks);
    (extrap ? result.sampledTicks : result.exactTicks) += ticks;
    reportedMips = mips;
    if (guard != nullptr)
        guard->observeSettled(*cond, config.ptargetW, pcoreMax, first,
                              ticks, config.tickMs);
}

/**
 * Ticks after @p t that repeat it. Until the next event nothing the
 * stages read changes: the work, the levels and the held condition
 * are fixed, no stall is charged, and the sampler keeps its verdict.
 * The events are the next DVFS boundary or OS interval, a thread's
 * phase draw, a core failure falling due, and the end of the run.
 * Transient thermal integrates every tick, so those runs repeat no
 * tick.
 */
std::size_t
TickRun::quietTicksAfter(const Tick &t) const
{
    // A phase drawn in this tick's drift changes the next tick's work;
    // a sampler that switched between settling and extrapolating
    // changes what the next tick reports.
    if (config.transientThermal || workDirty ||
        (sampled && sampler.extrapolating() != t.extrap))
        return 0;
    std::size_t next =
        std::min({totalTicks, (t.index / dvfsPeriod + 1) * dvfsPeriod,
                  (t.index / osPeriod + 1) * osPeriod});
    for (std::size_t tick : phaseDrawTick)
        next = std::min(next, tick);
    const auto failure = std::upper_bound(failureTicks.begin(),
                                          failureTicks.end(), t.index);
    if (failure != failureTicks.end())
        next = std::min(next, *failure);
    return next - t.index - 1;
}

/**
 * Replay the @p ticks quiet ticks after @p t (see quietTicksAfter):
 * their sums, power-trace ticks, wear and tick counts, the phase
 * sequencers' drift, and the sampler's per-tick work — its observe
 * and, on settled ticks, the basis upkeep, which repeats the same
 * refreeze each tick and so runs once.
 *
 * The observes may complete the hysteresis window partway through the
 * run. One upkeep at its end still leaves the per-tick state: an
 * Unstable sampler never has its epoch's extrapolation verdict set
 * (invalidate() and beginEpochEvaluate() clear it), so the refreeze
 * that arms it cannot turn extrapolation on, the upkeep reseeds the
 * basis from the same held condition, and the upkeeps after it change
 * nothing.
 */
void
TickRun::replay(const Tick &t, std::size_t ticks)
{
    if (ticks == 0)
        return;
    wearout.repeat(config.tickMs, ticks);
    addTicks(t.index + 1, ticks, cond->totalMips, t.extrap);
    // No sequencer draws before the next event.
    for (PhaseSequencer &seq : phases) {
        for (std::size_t n = 0; n < ticks; ++n)
            seq.advance(config.tickMs);
    }
    Tick last;
    last.index = t.index + ticks;
    injector.advanceTo(static_cast<double>(last.index) * config.tickMs);
    if (!sampled)
        return;
    sampler.observeTicks(sig, ticks);
    if (t.extrap)
        sampler.noteExtrapolatedTicks(ticks);
    else
        basisUpkeep(last, false, 0.0, 0.0);
}

/** Turn the accumulated sums into the run's result. */
SystemResult
TickRun::finalise()
{
    const double n = static_cast<double>(totalTicks);
    result.avgMips = sumMips / n;
    result.avgMinThreadMips = sumMinThread / n;
    result.avgWeightedIpc = sumWeighted / n;
    result.avgWeightedProgress = sumProgress / n;
    result.avgPowerW = sumPower / n;
    result.avgFreqHz = sumFreq / n;
    result.powerDeviation = config.pm != PmKind::None ? sumDev / n : 0.0;
    result.ed2 = ed2Of(result.avgPowerW, result.avgMips);
    result.weightedEd2 = ed2Of(result.avgPowerW, result.avgWeightedIpc);
    result.worstAgingRate = wearout.worstRate();
    result.projectedLifetimeYears = wearout.projectedLifetimeYears();
    result.transitionLossFraction = sumMips > 0.0
        ? transitionLostMipsMs /
            (sumMips * config.tickMs + transitionLostMipsMs)
        : 0.0;

    result.capViolationFraction = config.pm != PmKind::None
        ? capViolationFraction(result.powerTrace, config.ptargetW)
        : 0.0;
    const PhaseSamplerStats &sstats = sampler.stats();
    result.estErr = totalTicks > 0
        ? sstats.estErrSum / static_cast<double>(totalTicks)
        : 0.0;
    result.phaseInvalidations = sstats.totalInvalidations();
    result.evaluatedEpochs = dvfsEpochs - sstats.extrapolatedEpochs;
    result.extrapolatedEpochs = sstats.extrapolatedEpochs;
    result.dvfsFaultsInjected = injector.dvfsFaultsInjected();
    result.coresFailed = injector.coresFailed();
    if (guard != nullptr) {
        const GuardStats &gstats = guard->stats();
        result.fallbackEngagements = gstats.fallbackEngagements;
        result.guardRecoveries = gstats.recoveries;
        result.finalGuardTier = static_cast<int>(guard->tier());
        result.sensorQuarantines = guard->sensorQuarantines();
        result.meanRecoveryMs = gstats.recoveries > 0
            ? gstats.recoveryMs / static_cast<double>(gstats.recoveries)
            : 0.0;
        result.degradedTimeMs = gstats.degradedTimeMs;
    }
    return std::move(result);
}

} // namespace

SystemResult
SystemSimulator::run()
{
    static metrics::Counter &iterations =
        metrics::Registry::global().counter("core.tick.iterations");
    // A fresh manager (and guard) per run: their state is the run's,
    // so a second run() repeats the first.
    std::unique_ptr<PowerManager> manager =
        makePowerManager(config_.pm, config_.sannEvals,
                         config_.seed ^ 0x5A5A, config_.pmObjective);
    GuardedPowerManager *guard = nullptr;
    if (config_.guardedPm && config_.pm != PmKind::None) {
        auto guarded =
            std::make_unique<GuardedPowerManager>(std::move(manager));
        guard = guarded.get();
        manager = std::move(guarded);
    }
    TickRun run(die_, apps_, config_, evaluator_, *manager, guard);
    std::uint64_t events = 0;
    for (std::size_t i = 0; i < run.totalTicks; ++events) {
        Tick tick;
        tick.index = i;
        tick.dvfsBoundary = i % run.dvfsPeriod == 0;
        run.scheduleStage(tick);
        run.epochStage(tick);
        run.settleStage(tick);
        run.accumulateStage(tick);
        const std::size_t quiet = run.quietTicksAfter(tick);
        run.replay(tick, quiet);
        i += 1 + quiet;
    }
    iterations.add(events);
    return run.finalise();
}

} // namespace varsched
