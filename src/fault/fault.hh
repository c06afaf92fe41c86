/**
 * @file
 * Deterministic fault injection for the CMP runtime.
 *
 * The paper's power managers act on sensor readings and DVFS
 * actuators that, at scale, misbehave routinely: power sensors get
 * stuck, drop out, spike, or drift; a commanded (V, f) transition is
 * silently skipped or lands one step short; whole cores die. The
 * FaultInjector realises a seeded, fully reproducible schedule of
 * such faults so robustness experiments (bench_ext_faults,
 * tests/test_fault) replay bit-identically.
 *
 * Layering: this library depends only on chip/ — it corrupts the
 * sensor view (via the SensorTamper hook of buildSnapshot) and the
 * actuation path, never the physics. The defences live one layer up
 * (fault/validate.hh, core/guarded.hh).
 */

#ifndef VARSCHED_FAULT_FAULT_HH
#define VARSCHED_FAULT_FAULT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chip/sensors.hh"
#include "solver/rng.hh"

namespace varsched
{

/** Failure modes of a per-core power sensor. */
enum class SensorFaultKind
{
    StuckAt,  ///< Reports a constant value regardless of level.
    Dropout,  ///< Reports 0 W (sensor offline).
    Spike,    ///< Occasionally multiplies the reading.
    Drift,    ///< Adds a slowly growing offset.
};

/** One scheduled power-sensor fault. */
struct SensorFaultSpec
{
    SensorFaultKind kind = SensorFaultKind::StuckAt;
    std::size_t coreId = 0; ///< Core whose power sensor misbehaves.
    double startMs = 0.0;   ///< Fault onset, simulated time.
    double endMs = -1.0;    ///< Fault end; < 0 means never clears.
    /**
     * Meaning by kind — StuckAt: the reported watts; Spike: the
     * multiplier applied to the true reading; Drift: watts added per
     * millisecond since onset. Unused for Dropout.
     */
    double magnitude = 0.0;
    /** Spike only: probability that any one reading spikes. */
    double probability = 1.0;
};

/** Stochastic DVFS actuation faults (applied per level *change*). */
struct DvfsFaultSpec
{
    /** Probability a requested transition is silently not applied. */
    double failRate = 0.0;
    /** Probability the transition lands one step short of the target. */
    double shortStepRate = 0.0;
};

/** Permanent whole-core failure at a configurable time. */
struct CoreFailureSpec
{
    std::size_t coreId = 0;
    double atMs = 0.0; ///< Core is dead from this time on.
};

/** Complete fault schedule of one run. */
struct FaultSpec
{
    std::vector<SensorFaultSpec> sensorFaults;
    DvfsFaultSpec dvfs;
    std::vector<CoreFailureSpec> coreFailures;

    /** True when any fault is configured. */
    bool any() const
    {
        return !sensorFaults.empty() || !coreFailures.empty() ||
            dvfs.failRate > 0.0 || dvfs.shortStepRate > 0.0;
    }
};

/**
 * Executes a FaultSpec against a running system. All randomness comes
 * from one seeded stream consumed in simulation order, so a given
 * (spec, seed) pair injects the identical fault trace every run.
 */
class FaultInjector : public SensorTamper
{
  public:
    FaultInjector(const FaultSpec &spec, std::uint64_t seed);

    /** Advance the injector's clock to @p nowMs. */
    void advanceTo(double nowMs) { nowMs_ = nowMs; }

    /** SensorTamper: corrupt one power reading per the schedule. */
    double tamperPower(std::size_t coreId, std::size_t level,
                       double trueW) override;

    /**
     * Pass a requested DVFS transition through the faulty actuator.
     *
     * @return The level actually applied: @p requestedLevel normally,
     *         @p currentLevel on a dropped transition, or one step
     *         short of the target on a short transition.
     */
    int actuate(std::size_t coreId, int currentLevel,
                int requestedLevel);

    /** True when @p coreId has permanently failed by now. */
    bool coreFailed(std::size_t coreId) const;

    /** Number of cores failed by now. */
    std::size_t coresFailed() const;

    /** DVFS transitions dropped or cut short so far. */
    std::size_t dvfsFaultsInjected() const { return dvfsFaults_; }

    /** Sensor readings altered so far. */
    std::size_t readingsTampered() const { return tampered_; }

    const FaultSpec &spec() const { return spec_; }

  private:
    FaultSpec spec_;
    Rng rng_;
    double nowMs_ = 0.0;
    std::size_t dvfsFaults_ = 0;
    std::size_t tampered_ = 0;
};

} // namespace varsched

#endif // VARSCHED_FAULT_FAULT_HH
