/**
 * @file
 * The CMP runtime of Section 5 / Fig 2: at every OS scheduling
 * interval the supervisor revisits the thread-to-core mapping with
 * one of the Table 1 algorithms; at every (shorter) DVFS interval the
 * power manager re-reads the sensors and re-selects per-core (V, f)
 * pairs. Metrics accumulate per tick (tickMs). The chip is settled
 * and the metrics recomputed only on event ticks: a decision point,
 * an application phase change, a core failure. Between events the
 * work, the levels and the settled chip are fixed, so the loop replays
 * each quiet tick's sums (and the guard's scoring of it) instead of
 * running it, bit-identical to running it (see SystemSimulator::run).
 *
 * Supports all three configurations of Table 2:
 *  - UniFreq        (uniform frequency, no DVFS)
 *  - NUniFreq       (per-core maximum frequency, no DVFS)
 *  - NUniFreq+DVFS  (per-core frequency with a power manager)
 */

#ifndef VARSCHED_CORE_SYSTEM_HH
#define VARSCHED_CORE_SYSTEM_HH

#include <memory>
#include <vector>

#include "chip/sensors.hh"
#include "core/guarded.hh"
#include "core/metrics.hh"
#include "core/pmalgo.hh"
#include "core/sched.hh"
#include "fault/fault.hh"
#include "runtime/phase.hh"

namespace varsched
{

/** Power-manager selection for a system run. */
enum class PmKind
{
    None,       ///< No DVFS: all cores at the top level.
    FoxtonStar, ///< Round-robin reduction baseline.
    LinOpt,     ///< Linear-programming manager.
    SAnn,       ///< Simulated-annealing manager.
    Exhaustive, ///< Brute force (<= 4 threads).
    LinOptMaxMin, ///< Max-min LP for barrier gangs (extension).
};

/** Human-readable power-manager name. */
const char *pmKindName(PmKind kind);

/** Configuration of one system run. */
struct SystemConfig
{
    SchedAlgo sched = SchedAlgo::Random;
    PmKind pm = PmKind::None;

    /** Chip-wide power budget, W (ignored when pm == None). */
    double ptargetW = 75.0;
    /**
     * Per-core cap, W; <= 0 derives the default 2 * Ptarget / threads
     * (the paper uses a per-core cap but gives no number).
     */
    double pcoreMaxW = 0.0;

    /** All cores clocked at the slowest core's fmax (UniFreq). */
    bool uniformFrequency = false;

    double osIntervalMs = 100.0; ///< Scheduler period (Fig 2).
    double dvfsIntervalMs = 10.0; ///< Power-manager period (Fig 2).
    double tickMs = 1.0;          ///< Physics/metrics step.
    double durationMs = 300.0;    ///< Simulated time.

    /**
     * Thermal mode: false (default) settles the steady-state
     * leakage-temperature fixed point every tick; true integrates
     * the thermal RC network transiently between ticks, capturing
     * the silicon/package time constants (slower to warm, slower to
     * cool). The steady-state mode matches the paper's HotSpot usage
     * at its 10 ms-and-up decision timescales.
     */
    bool transientThermal = false;

    /**
     * Seed the steady-state leakage-temperature Newton solve from
     * the previous tick's settled temperatures instead of the cold
     * refTempC seed (about 2 power evaluations per settle instead of
     * 3-4). Both seeds stop within the same 0.01 C residual of the
     * fixed point, so per-tick values can differ between them in the
     * last hundredth of a degree; false gives the history-free cold
     * seed. The steady-state condition cache (reusing the previous
     * solution when work/levels are unchanged) is exact and always
     * on.
     */
    bool warmStartThermal = true;

    /** SAnn evaluation budget (when pm == SAnn). */
    std::size_t sannEvals = 20000;

    /** Objective the optimising managers maximise (Fig 13 uses
     *  Weighted). */
    PmObjective pmObjective = PmObjective::Throughput;

    /**
     * Voltage-regulator transition time per voltage step, in
     * microseconds. Off-chip regulators (the paper's conservative
     * Xscale-era assumption) take tens of microseconds per step;
     * Kim-et-al.-style on-chip regulators take ~0.1 us. A core stalls
     * for its transition time after each DVFS change, charging the
     * throughput for level changes. 0 disables the overhead.
     */
    double transitionUsPerStep = 10.0;

    /** Seed for placement, phases, noise, and SAnn. */
    std::uint64_t seed = 1;

    /**
     * Fault schedule injected into sensors, DVFS actuation, and
     * cores (see fault/fault.hh). Empty by default. Faults draw from
     * their own fork of @ref seed, so a run is a pure function of
     * (die, workload, config).
     */
    FaultSpec faults;

    /**
     * Wrap the power manager in a GuardedPowerManager (sensor
     * validation, decision cross-checks, and the LinOpt -> Foxton*
     * -> safe-mode fallback chain; see core/guarded.hh). Ignored
     * when pm == None.
     */
    bool guardedPm = false;

    /**
     * Phase-sampled engine (runtime/phase.hh): detect steady workload
     * phases online and evaluate only a sampled subset of DVFS epochs,
     * extrapolating the rest from the settled condition. Off by
     * default (the exact tick loop). The SamplingGuard tests hold
     * sampled runs' power/energy/ED^2 to the error budget against the
     * same runs with sampling off. Requires steady-state thermal mode
     * and no guardedPm (both need every tick settled).
     */
    PhaseSamplingConfig phaseSampling;
};

/**
 * Validate a run configuration, throwing std::invalid_argument with
 * a precise message on bad timing parameters (non-positive tick /
 * DVFS / OS intervals or duration, a DVFS or OS interval that is not
 * a whole multiple of the tick), a non-positive Ptarget when a power
 * manager is enabled, or fault specs naming cores beyond
 * @p numCores. Called by SystemSimulator's constructor; exposed for
 * front-ends that want to validate before constructing.
 */
void validateSystemConfig(const SystemConfig &config,
                          std::size_t numCores);

/** Aggregated outcome of one system run. */
struct SystemResult
{
    double avgMips = 0.0;        ///< Time-averaged total MIPS.
    /**
     * Time-averaged MIPS of the *slowest* active thread — the pace a
     * barrier-synchronised gang would make (extension; see
     * core/parallel.hh).
     */
    double avgMinThreadMips = 0.0;
    double avgWeightedIpc = 0.0; ///< Time-avg weighted IPC (paper).
    double avgWeightedProgress = 0.0; ///< Time-avg progress variant.
    double avgPowerW = 0.0;      ///< Time-averaged chip power.
    double avgFreqHz = 0.0;      ///< Avg frequency of active cores.
    double maxCoreTempC = 0.0;   ///< Hottest core-sample seen.
    double energyJ = 0.0;        ///< Integrated energy.
    double instructions = 0.0;   ///< Integrated instruction count.
    double ed2 = 0.0;            ///< P/TP^3 on run averages.
    double weightedEd2 = 0.0;    ///< P/weightedTP^3.
    /**
     * Mean |power - Ptarget| / Ptarget over the run, sampled per
     * tick (Fig 14's deviation metric). 0 when pm == None.
     */
    double powerDeviation = 0.0;
    /**
     * Settled chip power, W, tick by tick as runs: a run's ticks all
     * read its power, and adjacent runs differ in power bit for bit,
     * so two traces are equal exactly when their per-tick samples are.
     * Its ticks sum to exactTicks + sampledTicks. A steady-state
     * simulation holds one PowerRun per change of power (~0.03 per
     * tick on a phase-sampled long horizon); a transient-thermal one
     * changes power every tick and holds one 16-byte PowerRun per
     * tick.
     */
    std::vector<PowerRun> powerTrace;
    /**
     * Worst core's time-averaged aging rate (1.0 = nominal wear at
     * the 60 C / 1 V reference; see reliability/wearout.hh).
     */
    double worstAgingRate = 0.0;
    /** Projected chip lifetime under this policy, years. */
    double projectedLifetimeYears = 0.0;
    /** Throughput lost to voltage-transition stalls, fraction. */
    double transitionLossFraction = 0.0;

    // Robustness metrics (meaningful under faults / guardedPm).

    /**
     * Fraction of ticks whose settled chip power exceeded Ptarget by
     * more than 5% (0 when pm == None).
     */
    double capViolationFraction = 0.0;
    /** Guard fallback-chain engagements (tier degrades). */
    std::size_t fallbackEngagements = 0;
    /** Times the guard recovered all the way back to the primary. */
    std::size_t guardRecoveries = 0;
    /** Guard tier at the end of the run (0 = primary manager). */
    int finalGuardTier = 0;
    /** Mean degrade-to-primary-recovery latency, ms (0 if none). */
    double meanRecoveryMs = 0.0;
    /** Total time spent below the primary tier, ms. */
    double degradedTimeMs = 0.0;
    /** Power sensors quarantined by the validator (events). */
    std::size_t sensorQuarantines = 0;
    /** DVFS transitions dropped or cut short by injected faults. */
    std::size_t dvfsFaultsInjected = 0;
    /** Cores permanently failed during the run. */
    std::size_t coresFailed = 0;

    // Phase-sampling telemetry. With phaseSampling off, exactTicks
    // and evaluatedEpochs count every tick and epoch, and the other
    // four fields read zero.

    /** Ticks settled exactly (all ticks when sampling is off). */
    std::uint64_t exactTicks = 0;
    /** Ticks extrapolated from a frozen steady-phase basis. */
    std::uint64_t sampledTicks = 0;
    /**
     * Estimated relative error introduced by extrapolation: the
     * tick-weighted mean of the checkpoint errors observed whenever
     * an exact settle replaced an extrapolated state.
     */
    double estErr = 0.0;
    /** Basis invalidations + forced resamples (all causes). */
    std::uint64_t phaseInvalidations = 0;
    /** DVFS epochs evaluated end-to-end (all of them, unsampled). */
    std::uint64_t evaluatedEpochs = 0;
    /** DVFS epochs extrapolated from the frozen basis. */
    std::uint64_t extrapolatedEpochs = 0;
};

/** Drives one workload on one die under one configuration. */
class SystemSimulator
{
  public:
    /**
     * @param die The manufactured die to run on.
     * @param apps One profile per thread;
     *        @pre apps.size() <= die.numCores().
     * @param config Run configuration.
     */
    SystemSimulator(const Die &die,
                    std::vector<const AppProfile *> apps,
                    const SystemConfig &config);

    /**
     * Run the configured duration and aggregate the metrics. The loop
     * runs once per event, not once per tick: after the stages run on
     * an event tick, the quiet ticks up to the next event (DVFS
     * boundary, OS interval, phase draw, core failure, end of run)
     * are replayed with the same adds in the same order; a guard
     * scores them in one call. Transient-thermal runs have no quiet
     * ticks. The run with phaseSampling off is the exact
     * reference: every tick settled, every DVFS epoch decided, and no
     * sampler work done.
     * With phaseSampling enabled this is the sampled engine
     * (signatures, epoch verdicts, basis upkeep); with a budget of 0
     * it is bit-identical to the exact reference.
     * Each call builds its own power manager (and guard), so calls
     * on one simulator return the same result.
     */
    SystemResult run();

  private:
    const Die &die_;
    std::vector<const AppProfile *> apps_;
    SystemConfig config_;
    ChipEvaluator evaluator_;
};

/** Instantiate a power manager by kind (seeded where relevant). */
std::unique_ptr<PowerManager> makePowerManager(
    PmKind kind, std::size_t sannEvals, std::uint64_t seed,
    PmObjective objective = PmObjective::Throughput);

} // namespace varsched

#endif // VARSCHED_CORE_SYSTEM_HH
