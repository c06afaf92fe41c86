/**
 * @file
 * Trace-driven out-of-order core timing model (SESC/Alpha-21264
 * flavoured, per Table 4: 4-wide fetch, 2-wide issue/commit, 80-entry
 * ROB window, 7-cycle mispredict penalty, 2-cycle L1, 8-12 cycle L2,
 * 100 ns memory).
 *
 * The model tracks per-instruction fetch/issue/completion/commit
 * times with O(1) state per instruction: dependency stalls through a
 * completion-time window, issue bandwidth through a token clock, the
 * ROB through the commit time of the instruction ROB-size slots
 * earlier, branch redirects through the resolve time of mispredicted
 * branches, and memory-level parallelism through overlapping misses
 * that the window permits. Memory latency is fixed in nanoseconds, so
 * the miss penalty in cycles grows with frequency — the IPC(f)
 * dependence the scheduling algorithms exploit.
 *
 * Per-unit activity factors are measured on the way through, feeding
 * the Wattch-style dynamic power model.
 */

#ifndef VARSCHED_CMPSIM_CORE_HH
#define VARSCHED_CMPSIM_CORE_HH

#include <algorithm>
#include <cstdint>

#include "cmpsim/branch.hh"
#include "cmpsim/cache.hh"
#include "cmpsim/tracegen.hh"
#include "cmpsim/workload.hh"
#include "power/dynamic.hh"
#include "solver/rng.hh"

namespace varsched
{

/** Aggregate statistics of one simulation run. */
struct SimStats
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t intOps = 0;
    std::uint64_t fpOps = 0;

    /** Measured per-unit activity factors. */
    ActivityVector unitActivity{};

    /** Instructions per cycle. */
    double ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                static_cast<double>(cycles)
                      : 0.0;
    }
    /** L1D misses per kilo-instruction. */
    double l1Mpki() const
    {
        return instructions ? 1000.0 * static_cast<double>(l1dMisses) /
                static_cast<double>(instructions)
                            : 0.0;
    }
    /** L2 (memory) misses per kilo-instruction. */
    double l2Mpki() const
    {
        return instructions ? 1000.0 * static_cast<double>(l2Misses) /
                static_cast<double>(instructions)
                            : 0.0;
    }
};

/**
 * One core executing one application's synthetic trace, with a
 * private L1D and an L2 owned by the caller: its own (the solo
 * profile, measureApplication) or one shared by every core of a
 * CmpModel.
 *
 * Instructions before openWindow() are warmup; the window counts the
 * next N and spans from the commit clock at its opening to the commit
 * of its N-th instruction. Instructions past the window run
 * uncounted, so a core that finishes early keeps loading a shared L2.
 */
class CoreModel
{
  public:
    /**
     * Install the application's resident set in the L1D and @p l2.
     *
     * @param app Application profile feeding the trace generator.
     * @param l2 L2 the core misses into; must outlive the core.
     * @param trace Private stream of the trace generator.
     * @param freqHz Core clock, Hz (memory stays 100 ns).
     */
    CoreModel(const AppProfile &app, Cache &l2, Rng trace,
              double freqHz = 4.0e9);

    /** Warmup instructions run ahead of an N-instruction window. */
    static std::uint64_t warmupLength(std::uint64_t numInstrs)
    {
        return std::min<std::uint64_t>(20000, numInstrs / 4);
    }

    /**
     * Run warmupLength(@p numInstrs) uncounted instructions, then a
     * window of @p numInstrs, and return its statistics.
     */
    SimStats run(std::uint64_t numInstrs);

    /** Execute the next @p count instructions. */
    void advance(std::uint64_t count);

    /** Count the next @p numInstrs instructions from here on. */
    void openWindow(std::uint64_t numInstrs);

    /** True once every instruction of the window has committed. */
    bool windowDone() const { return retired_ >= quota_; }

    /** Statistics of the window, with measured activity factors. */
    SimStats windowStats() const;

  private:
    /** Execute one instruction, counting it while the window is open. */
    void step();

    TraceGenerator trace_;
    BranchPredictor predictor_;
    Cache l1d_;
    Cache *l2_;
    /** Main-memory latency in cycles at this core's clock. */
    double memCycles_;

    // Rolling timing state (all in cycles, as doubles).
    static constexpr std::size_t kWindow = 128;
    double completion_[kWindow] = {};
    double commit_[kWindow] = {};
    std::uint64_t index_ = 0;
    double fetchClock_ = 0.0;
    double issueClock_ = 0.0;
    double redirectUntil_ = 0.0;
    double lastCommit_ = 0.0;
    double memPortFree_ = 0.0;

    // Measured window.
    SimStats stats_;
    std::uint64_t quota_ = 0;
    std::uint64_t retired_ = 0;
    double windowStart_ = 0.0;
    double windowEnd_ = 0.0; ///< Commit of the last counted instruction.
};

} // namespace varsched

#endif // VARSCHED_CMPSIM_CORE_HH
