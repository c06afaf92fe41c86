/**
 * @file
 * Application profiles for the SPEC CPU2000 subset the paper uses.
 *
 * We do not have SPEC binaries or the authors' SESC checkpoints, so
 * each application is described by a calibrated profile (Table 5 of
 * the paper anchors the dynamic power and IPC at 4 GHz / 1 V) plus
 * synthetic-trace parameters that drive the cmpsim timing model. The
 * profile also decomposes CPI into an execution component and a
 * memory component — the decomposition behind the IPC(f) dependence
 * that makes VarF&AppIPC work: memory-bound applications gain little
 * from frequency because memory time is fixed in nanoseconds.
 *
 * Time-varying behaviour is modelled as a small Markov chain over
 * phases that scale IPC and activity around the Table 5 averages.
 */

#ifndef VARSCHED_CMPSIM_WORKLOAD_HH
#define VARSCHED_CMPSIM_WORKLOAD_HH

#include <cstddef>
#include <string>
#include <vector>

#include "power/dynamic.hh"
#include "solver/rng.hh"

namespace varsched
{

/** One behavioural phase of an application. */
struct Phase
{
    /** Multiplier on the app's execution CPI in this phase. */
    double cpiScale = 1.0;
    /** Multiplier on the app's memory misses-per-instruction. */
    double missScale = 1.0;
    /** Multiplier on the app's dynamic-power activity. */
    double activityScale = 1.0;
    /** Mean dwell time in this phase, milliseconds. */
    double meanDwellMs = 150.0;
    /** Optional label ("burst", "lull", ...) for traces/telemetry. */
    std::string label;
};

/** Static description of one application. */
struct AppProfile
{
    std::string name;
    bool isFloatingPoint = false;

    /** Table 5 anchor: core+L1 dynamic power at 4 GHz / 1 V, watts. */
    double dynPowerW = 3.0;
    /** Table 5 anchor: average IPC (at 4 GHz / 1 V). */
    double ipcAt4GHz = 1.0;

    /** Execution (non-memory) CPI component at nominal conditions. */
    double cpiExe = 1.0;
    /** Main-memory (L2 miss) accesses per instruction. */
    double memMpi = 0.001;
    /** L2 accesses (L1 misses) per instruction. */
    double l2Mpi = 0.01;

    /** Relative per-unit activity shape (calibrated to dynPowerW). */
    ActivityVector activityShape{};

    // --- synthetic trace parameters -------------------------------
    /** Fraction of instructions that are loads/stores. */
    double memFraction = 0.30;
    /** Fraction of instructions that are branches. */
    double branchFraction = 0.12;
    /** Fraction of ALU ops that are floating point. */
    double fpFraction = 0.0;
    /** Fraction of branches with data-dependent (random) outcomes. */
    double hardBranchFraction = 0.05;
    /** Mean register dependency distance (instructions). */
    double depDistance = 6.0;

    /** Phase set (first is the starting phase). */
    std::vector<Phase> phases;

    /** Total CPI at the given frequency (memory time fixed in ns). */
    double cpiAt(double freqHz, double memLatencyNs = 100.0) const
    { return cpiExe + memMpi * memLatencyNs * 1e-9 * freqHz; }

    /** IPC at the given frequency. */
    double ipcAt(double freqHz, double memLatencyNs = 100.0) const
    { return 1.0 / cpiAt(freqHz, memLatencyNs); }
};

/** The 14-application SPECint + SPECfp pool of Section 6.4. */
const std::vector<AppProfile> &specApplications();

/**
 * Synthetic service-traffic profiles for long-horizon runs: request
 * mixes with *long-dwell* labelled phases (steady / peak / lull on
 * the order of seconds) instead of SPEC's ~150 ms swings. This is the
 * workload the phase-sampled engine is built for — the phases are
 * long enough to sample, and a million-tick horizon walks through
 * many of them.
 */
const std::vector<AppProfile> &trafficApplications();

/** Look up an application by name; aborts if absent. */
const AppProfile &findApplication(const std::string &name);

/**
 * Draw a workload of @p numThreads applications from @p pool
 * (uniformly, with replacement — the paper builds 1..20-app
 * multiprogrammed mixes from the same 14 applications). @p pool
 * defaults to specApplications().
 */
std::vector<const AppProfile *> randomWorkload(
    std::size_t numThreads, Rng &rng,
    const std::vector<AppProfile> *pool = nullptr);

/**
 * Markov phase sequencer: tracks which phase an application instance
 * is in and advances it over simulated time.
 */
class PhaseSequencer
{
  public:
    /** @param app Profile whose phases to walk. @param rng Stream. */
    PhaseSequencer(const AppProfile &app, Rng rng);

    /** Current phase. */
    const Phase &current() const;

    /** Index of the current phase in the profile's phase set. */
    std::size_t currentIndex() const { return index_; }

    /** Advance simulated time; may transition between phases. */
    void advance(double dtMs);

    /**
     * advance(dtMs) calls until the one that draws the next phase,
     * counting that one (>= 1): the same subtractions, one by one, so
     * the count holds where they round (dtMs = 0.1).
     */
    std::size_t ticksToBoundary(double dtMs) const;

  private:
    const AppProfile *app_;
    Rng rng_;
    std::size_t index_ = 0;
    double remainingMs_ = 0.0;
};

} // namespace varsched

#endif // VARSCHED_CMPSIM_WORKLOAD_HH
