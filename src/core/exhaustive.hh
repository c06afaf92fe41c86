/**
 * @file
 * Exhaustive (V, f) search — the optimality reference of Section 6.5.
 * Enumerates every combination of per-core voltage levels and keeps
 * the feasible one with the highest throughput. Exponential in thread
 * count, so (like the paper) it is only usable up to ~4 threads; the
 * constructor caps the state count defensively.
 */

#ifndef VARSCHED_CORE_EXHAUSTIVE_HH
#define VARSCHED_CORE_EXHAUSTIVE_HH

#include "core/pmalgo.hh"

namespace varsched
{

/** Brute-force optimal power manager for tiny configurations. */
class ExhaustiveManager : public PowerManager
{
  public:
    /**
     * @param maxStates Abort guard on the search-space size.
     * @param objective What to maximise over the feasible states.
     */
    explicit ExhaustiveManager(
        std::size_t maxStates = 20'000'000,
        PmObjective objective = PmObjective::Throughput);

    std::string name() const override { return "Exhaustive"; }
    const std::vector<int> &selectLevels(const ChipSnapshot &snap) override;

    /** States visited by the last invocation. */
    std::size_t lastStates() const { return lastStates_; }

  private:
    std::size_t maxStates_;
    PmObjective objective_;
    std::size_t lastStates_ = 0;
};

} // namespace varsched

#endif // VARSCHED_CORE_EXHAUSTIVE_HH
