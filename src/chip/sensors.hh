/**
 * @file
 * Run-time chip evaluation and the sensor/profile snapshot the power
 * managers consume.
 *
 * Two views of the same chip:
 *
 *  - ChipEvaluator::evaluate is "physics": given what runs where and
 *    at which voltage level, it settles the leakage-temperature fixed
 *    point (Su et al.) and reports the actual power, temperature, and
 *    throughput. The system simulator advances time with it.
 *
 *  - buildSnapshotInto is "what the algorithms are allowed to know"
 *    (Table 3): per selected thread-core pair, the manufacturer's
 *    (voltage, frequency) table, IPC read from performance counters,
 *    and power read from sensors at the *current* temperature —
 *    optionally noisy. LinOpt additionally restricts itself to three
 *    of these power readings, per Section 5.2.
 *
 * A ChipSnapshot is flat: the three readings are (active core, level)
 * tables, row-major, and a tick loop refills one snapshot in place
 * every DVFS epoch, so a decision allocates nothing once the tables
 * have grown. The noiseless IPC and dynamic-power rows of each core
 * depend only on what the core runs, so the evaluator keeps them per
 * core and rebuilds a row only when that core's CoreWork changes.
 * Noise, leakage at the current temperature and the tamper hook run on
 * every fill. buildSnapshot is the by-value wrapper over the fill.
 */

#ifndef VARSCHED_CHIP_SENSORS_HH
#define VARSCHED_CHIP_SENSORS_HH

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "chip/die.hh"
#include "cmpsim/workload.hh"

namespace varsched
{

/** What one core is running right now (phase-adjusted). */
struct CoreWork
{
    /** Application on this core, or nullptr when idle/power-gated. */
    const AppProfile *app = nullptr;
    /** Phase multiplier on execution CPI. */
    double cpiScale = 1.0;
    /** Phase multiplier on memory misses per instruction. */
    double missScale = 1.0;
    /** Phase multiplier on dynamic-power activity. */
    double activityScale = 1.0;

    bool operator==(const CoreWork &) const = default;
};

/** Physically-settled chip state. */
struct ChipCondition
{
    std::vector<double> corePowerW; ///< Total per-core power, W.
    std::vector<double> coreTempC;  ///< Settled core temperature.
    std::vector<double> coreFreqHz; ///< Operating frequency.
    std::vector<double> coreIpc;    ///< Per-core IPC (0 when idle).
    std::vector<double> coreMips;   ///< Per-core MIPS.
    double l2PowerW = 0.0;          ///< Both L2 blocks + uncore, W.
    double totalPowerW = 0.0;       ///< Chip total, W.
    double totalMips = 0.0;         ///< Sum of core MIPS.
    std::vector<double> l2TempC;    ///< Per-L2-block temperature.
    double spreaderC = 0.0;         ///< Package spreader temperature.
    double sinkC = 0.0;             ///< Heat-sink temperature.
};

/**
 * Physics evaluator bound to one die.
 *
 * Evaluation reuses internal scratch buffers and memoises the
 * per-application activity calibration, so one evaluator instance
 * must not be shared between concurrently-running threads (each
 * SystemSimulator owns its own; the batch runner gives every
 * (die, trial) tuple a private simulator).
 */
class ChipEvaluator
{
  public:
    explicit ChipEvaluator(const Die &die);

    /**
     * Settle the chip at the given operating point.
     *
     * @param work Per-core workload (size == numCores()).
     * @param levels Per-core voltage level (ignored for idle cores).
     * @param freqCapHz When positive, clamp every core's clock to
     *        this frequency — the UniFreq configurations, where all
     *        cores run at the slowest core's maximum.
     * @param warmStart Optional previous settled condition whose
     *        temperatures seed the leakage-temperature fixed point
     *        instead of the cold refTempC start. Both seeds reach the
     *        same fixed point within the 0.01 C residual; the warm one
     *        typically takes 2 power evaluations instead of 3-4 when
     *        the operating point barely moved. Pass nullptr for the
     *        cold, history-free settle.
     */
    ChipCondition evaluate(const std::vector<CoreWork> &work,
                           const std::vector<int> &levels,
                           double freqCapHz = 0.0,
                           const ChipCondition *warmStart = nullptr) const
    {
        ChipCondition cond;
        evaluateInto(cond, work, levels, freqCapHz, warmStart);
        return cond;
    }

    /**
     * Allocation-free variant of evaluate(): settles the chip into
     * @p out, reusing its vectors' capacity. @p warmStart may alias
     * @p out (the seed temperatures are copied out first), which is
     * how the tick loop warm-starts each solve from the previous
     * one in place.
     */
    void evaluateInto(ChipCondition &out,
                      const std::vector<CoreWork> &work,
                      const std::vector<int> &levels,
                      double freqCapHz = 0.0,
                      const ChipCondition *warmStart = nullptr) const;

    /**
     * Transient variant: instead of settling the leakage-temperature
     * fixed point, advance the previous thermal state by @p dtMs
     * (thermal RC integration) and report the chip at the new
     * temperatures. Captures the ms-scale silicon and seconds-scale
     * package time constants that steady-state evaluation skips.
     *
     * @param previous Condition from the last tick (its temperatures
     *        seed the integration; pass a solve()-initialised
     *        condition for the first tick).
     */
    ChipCondition evaluateTransient(const std::vector<CoreWork> &work,
                                    const std::vector<int> &levels,
                                    const ChipCondition &previous,
                                    double dtMs,
                                    double freqCapHz = 0.0) const;

    /** IPC of @p app at frequency @p f with phase scales applied. */
    static double ipcOf(const AppProfile &app, const CoreWork &work,
                        double freqHz);

    /** Dynamic core power of @p work (not idle) at (v, f). */
    double dynamicPower(const CoreWork &work, double v, double f) const
    {
        return die_->dynamicModel().scaleToPoint(
                   nominalDynamicPower(*work.app), v, f) *
            work.activityScale;
    }

    const Die &die() const { return *die_; }

    /** Noiseless per-level sensor rows of one core (see sensorRows). */
    struct SensorRows
    {
        const double *ipc;  ///< IPC per level.
        const double *dynW; ///< Dynamic power per level, W.
    };

    /**
     * Core @p c's noiseless IPC and dynamic power at every level while
     * it runs @p work (not idle), for the snapshot fill. The rows are
     * kept per core and rebuilt only when @p work differs from the
     * work they were built for, so profiles must not change while the
     * evaluator lives (the assumption the tick loop's settle cache
     * makes too). The pointers stay valid until the next call for the
     * same core.
     */
    SensorRows sensorRows(std::size_t c, const CoreWork &work) const;

    /**
     * Dynamic power of @p app at nominal (V, f), memoised per profile
     * address and dynPowerW (profiles are immutable during a run).
     */
    double nominalDynamicPower(const AppProfile &app) const;

  private:
    /**
     * Temperature-independent frequency, IPC and MIPS into @p out and
     * dynamic power into dynW_; returns the L2 dynamic power.
     */
    double operatingPoint(ChipCondition &out,
                          const std::vector<CoreWork> &work,
                          const std::vector<int> &levels,
                          double freqCapHz) const;

    /** Block powers and their dP/dT at temps_, into power_, slope_. */
    void blockPowers(const std::vector<CoreWork> &work,
                     const std::vector<int> &levels, double l2DynW) const;

    /** Copy power_ and the chip totals into @p out. */
    void reportPowers(ChipCondition &out) const;

    const Die *die_;
    Matrix response_;         ///< ThermalModel::blockResponse() R.
    std::vector<double> t0_;  ///< ThermalModel::zeroPowerTemps().

    // Scratch reused across evaluate() calls (see class comment); the
    // block vectors hold the cores, then the L2s.
    mutable std::vector<double> dynW_;
    mutable std::vector<double> l2Power_;
    mutable std::vector<double> temps_, power_, slope_;
    mutable std::vector<double> phi_; ///< t0 + R·P, every node.
    mutable std::vector<double> step_;
    mutable Matrix jacobian_;
    mutable std::vector<std::pair<const AppProfile *, double>> actKeys_;
    mutable std::vector<double> actVals_;
    // sensorRows() memo: per core, the work its rows were built for
    // (an idle CoreWork before the first build) and its IPC and
    // dynamic-power rows, row-major by core.
    mutable std::vector<CoreWork> rowWork_;
    mutable std::vector<double> rowIpc_, rowDynW_;
};

/** One active thread-core pair of the snapshot; its readings are the
 *  matching row of the ChipSnapshot tables. */
struct CoreSnapshot
{
    std::size_t coreId = 0;   ///< Physical core.
    std::size_t threadId = 0; ///< Index into the workload.
    /**
     * The thread's reference throughput (MIPS at nominal 4 GHz and
     * its profile IPC) — the denominator of the weighted-throughput
     * objective of Fig 13.
     */
    double refMips = 1.0;
};

/**
 * Everything a power-management algorithm may consult.
 *
 * The readings are three flat tables indexed (active core, level),
 * row-major: row i belongs to cores[i] and has voltage.size() columns,
 * so the cell of core i at level l is [i * numLevels() + l]. A
 * hand-built snapshot appends a core's record to `cores` and its
 * numLevels() readings to each table. buildSnapshotInto refills one
 * in place, reusing the tables' capacity.
 */
struct ChipSnapshot
{
    std::vector<CoreSnapshot> cores; ///< Active thread-core pairs.
    std::vector<double> voltage;     ///< Volts per level.
    std::vector<double> freqHz; ///< Manufacturer (V, f) table.
    std::vector<double> ipc;    ///< Counter-estimated IPC.
    std::vector<double> powerW; ///< Sensor power (frozen T), W.
    double uncorePowerW = 0.0; ///< L2 etc. — not manageable, counted.
    double ptargetW = 0.0;     ///< Chip-wide budget.
    double pcoreMaxW = 0.0;    ///< Per-core cap.

    /** Columns per table row. */
    std::size_t numLevels() const { return voltage.size(); }

    /** Table index of active core @p i at @p level. */
    std::size_t cell(std::size_t i, int level) const
    {
        assert(level >= 0 && static_cast<std::size_t>(level) < numLevels());
        return rowStart(i) + static_cast<std::size_t>(level);
    }

    /** Active core @p i's frequency per level. */
    std::span<const double> freqRow(std::size_t i) const
    { return {freqHz.data() + rowStart(i), numLevels()}; }
    /** Active core @p i's IPC per level. */
    std::span<const double> ipcRow(std::size_t i) const
    { return {ipc.data() + rowStart(i), numLevels()}; }
    /** Active core @p i's sensor power per level. */
    std::span<const double> powerRow(std::size_t i) const
    { return {powerW.data() + rowStart(i), numLevels()}; }
    /** Writable power row, for validators that substitute readings. */
    std::span<double> powerRow(std::size_t i)
    { return {powerW.data() + rowStart(i), numLevels()}; }

    /** Chip power if each active core ran at levels[i]. */
    double powerAt(const std::vector<int> &levels) const;
    /** Total MIPS if each active core ran at levels[i]. */
    double mipsAt(const std::vector<int> &levels) const;
    /** Weighted throughput (sum of MIPS / refMips) at levels[i]. */
    double weightedAt(const std::vector<int> &levels) const;
    /** True when levels satisfy both power constraints. */
    bool feasible(const std::vector<int> &levels) const;

  private:
    /** First cell of active core @p i's row; checks the tables' shape. */
    std::size_t rowStart(std::size_t i) const
    {
        assert(i < cores.size());
        assert(freqHz.size() == cores.size() * numLevels() &&
               ipc.size() == freqHz.size() && powerW.size() == freqHz.size());
        return i * numLevels();
    }
};

/**
 * Hook through which a fault model intercepts synthesised power
 * readings before they reach the snapshot. Gaussian sensor noise
 * models a *working* sensor; a SensorTamper models a *broken* one
 * (stuck-at, dropout, spike, drift — see fault/fault.hh, which
 * implements this interface).
 */
class SensorTamper
{
  public:
    virtual ~SensorTamper() = default;

    /**
     * @param coreId Core whose power sensor is being read.
     * @param level Voltage level of the reading.
     * @param trueW The value a healthy sensor would report.
     * @return The value the (possibly faulty) sensor reports.
     */
    virtual double tamperPower(std::size_t coreId, std::size_t level,
                               double trueW) = 0;
};

/**
 * Assemble the sensor view of the chip into @p snap, in place: its
 * vectors keep their capacity, so refilling a snapshot of the same
 * shape allocates nothing.
 *
 * @param evaluator Physics (used to synthesise the sensor readings).
 * @param work Current per-core workload.
 * @param current Settled condition whose temperatures freeze the
 *        leakage seen by the sensors.
 * @param ptargetW / @param pcoreMaxW Budgets copied into the snapshot.
 * @param noise Optional RNG; when non-null, IPC and power readings
 *        get ~1% multiplicative sensor noise.
 * @param tamper Optional fault model applied to each power reading
 *        (after noise — a broken sensor replaces the noisy value).
 */
void buildSnapshotInto(ChipSnapshot &snap, const ChipEvaluator &evaluator,
                       const std::vector<CoreWork> &work,
                       const ChipCondition &current, double ptargetW,
                       double pcoreMaxW, Rng *noise = nullptr,
                       SensorTamper *tamper = nullptr);

/** By-value buildSnapshotInto(), for one-off snapshots. */
inline ChipSnapshot
buildSnapshot(const ChipEvaluator &evaluator,
              const std::vector<CoreWork> &work,
              const ChipCondition &current, double ptargetW,
              double pcoreMaxW, Rng *noise = nullptr,
              SensorTamper *tamper = nullptr)
{
    ChipSnapshot snap;
    buildSnapshotInto(snap, evaluator, work, current, ptargetW, pcoreMaxW,
                      noise, tamper);
    return snap;
}

} // namespace varsched

#endif // VARSCHED_CHIP_SENSORS_HH
