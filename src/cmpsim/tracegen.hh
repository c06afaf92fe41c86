/**
 * @file
 * Synthetic instruction trace generator.
 *
 * Substitutes for SPEC reference traces: a stream of typed
 * instructions whose statistical structure (instruction mix, register
 * dependency distances, branch bias, and memory locality pools) is
 * drawn from an AppProfile. Memory addresses come from three pools —
 * an L1-resident hot set, an L2-resident warm set, and a DRAM-sized
 * cold set — with mixing probabilities derived from the profile's
 * target miss rates, so the cache models reproduce the intended
 * L1/L2 behaviour without real address traces.
 */

#ifndef VARSCHED_CMPSIM_TRACEGEN_HH
#define VARSCHED_CMPSIM_TRACEGEN_HH

#include <cstdint>

#include "cmpsim/workload.hh"
#include "solver/rng.hh"

namespace varsched
{

/** Instruction classes the timing model distinguishes. */
enum class InstrType : std::uint8_t
{
    IntAlu,
    FpAlu,
    Load,
    Store,
    Branch,
};

/** One synthetic instruction. */
struct SynthInstr
{
    InstrType type = InstrType::IntAlu;
    /**
     * Dependency distance: this instruction reads the result of the
     * instruction @p depDistance slots earlier (0 = no dependency).
     */
    std::uint32_t depDistance = 0;
    /** Byte address for loads/stores; PC for branches. */
    std::uint64_t addr = 0;
    /** Branch outcome (branches only). */
    bool taken = false;
};

/** Streaming generator of SynthInstr for one application. */
class TraceGenerator
{
  public:
    /**
     * @param app Profile that sets mix/locality/bias.
     * @param rng Private stream (forked per thread instance).
     */
    TraceGenerator(const AppProfile &app, Rng rng);

    /** Produce the next instruction. */
    SynthInstr next();

    /**
     * Install this application's resident working set: the hot pool
     * into L1 (and L2), the warm pool into L2. Equivalent to a long
     * cache warmup, so measurement can start in steady state.
     */
    void prefill(class Cache &l1, class Cache &l2) const;

  private:
    std::uint64_t pickAddress();

    const AppProfile *app_;
    Rng rng_;

    /**
     * Base of this instance's private address space: every thread
     * has its own hot/warm working set, so co-scheduled copies of
     * the same application still *compete* for shared-cache capacity
     * rather than sharing lines.
     */
    std::uint64_t addrBase_;

    // Address pools (byte sizes).
    std::uint64_t hotBytes_;
    std::uint64_t warmBytes_;
    std::uint64_t coldBytes_;
    double pWarm_; ///< P(access leaves L1 pool)
    double pCold_; ///< P(access leaves L2 pool)

    // Small static set of branch sites; some biased, some random.
    static constexpr std::size_t kBranchSites = 64;
    double branchBias_[kBranchSites];
    std::uint64_t branchPc_[kBranchSites];

    std::uint64_t seqCounter_ = 0; ///< For stride components.
};

} // namespace varsched

#endif // VARSCHED_CMPSIM_TRACEGEN_HH
