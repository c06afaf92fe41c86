/**
 * @file
 * SAnn: simulated-annealing power management (Sections 4.3.2 / 6.5).
 *
 * Same goal as LinOpt — maximise throughput under Ptarget and
 * Pcoremax — but searched with simulated annealing over the discrete
 * per-core voltage-level space, evaluating power *accurately* at
 * every level (no linear approximation). The initial state comes from
 * a simple greedy heuristic and the initial annealing temperature
 * scales with thread count, per the paper. SAnn is the quality
 * yardstick for LinOpt; it costs orders of magnitude more compute
 * (Fig 15 vs the SAnn timing bench).
 */

#ifndef VARSCHED_CORE_SANN_HH
#define VARSCHED_CORE_SANN_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "core/pmalgo.hh"
#include "solver/annealing.hh"

namespace varsched
{

/** Penalty weight for power violations, kMIPS per watt. */
inline constexpr double kPenaltyPerWatt = 50.0;

/**
 * Incremental annealing-energy oracle over a ChipSnapshot: the SAnn
 * energy (-objective in kMIPS plus steep per-watt penalties for chip-
 * and per-core-budget violations) maintained as running sums — total
 * power, objective, cap excess, and a per-core-violation count — so a
 * single-core level move is scored in O(1). Also tracks the best
 * *feasible* state visited, mirroring the side-tracking the legacy
 * full-rescore lambda did, since the chain's lowest-energy state may
 * carry a small violation a real controller cannot deploy.
 *
 * The snapshot must outlive the oracle. See AnnealEnergy for the call
 * contract.
 */
class SnapshotAnnealEnergy : public AnnealEnergy
{
  public:
    /**
     * @param snap Snapshot to score against.
     * @param weighted Score weighted throughput (x2000, Fig 13)
     *        instead of plain MIPS.
     */
    SnapshotAnnealEnergy(const ChipSnapshot &snap, bool weighted);

    double fullEnergy(const std::vector<int> &state) override;
    double moveDelta(std::size_t coord, int oldLevel,
                     int newLevel) override;
    void onCandidate(double candidateEnergy) override;
    void commit() override;
    void discard() override;

    /** Best feasible state seen (empty when none was visited). */
    const std::vector<int> &bestFeasible() const { return bestFeasible_; }

  private:
    /** Energy of the current running sums. */
    double energyOfSums() const;
    /** Track the current (speculative) state for best-feasible. */
    void noteVisited();

    const ChipSnapshot *snap_;
    bool weighted_;

    std::vector<int> state_; ///< Committed + pending levels.
    /** (coord, oldLevel) of each pending move, in application order. */
    std::vector<std::pair<std::size_t, int>> pending_;

    // Running sums over state_.
    double power_ = 0.0;  ///< Chip power incl. uncore, W.
    double objSum_ = 0.0; ///< MIPS or weighted-progress sum.
    double capEx_ = 0.0;  ///< Sum of per-core overage above Pcoremax.
    int coreViol_ = 0;    ///< Cores strictly above Pcoremax.

    // Snapshot of the sums at the start of the pending proposal, for
    // exact rollback on discard().
    double power0_ = 0.0, objSum0_ = 0.0, capEx0_ = 0.0;
    int coreViol0_ = 0;

    std::vector<int> bestFeasible_;
    double bestFeasibleObj_ = -1.0;
};

/** SAnn tuning. */
struct SAnnConfig
{
    /**
     * Objective evaluations per invocation. The paper runs 1e6;
     * the default here keeps multi-hundred-run experiments tractable
     * while staying within ~1% of the 1e6 result (see tests).
     */
    std::size_t maxEvals = 20000;
    /** Seed for the annealing chain. */
    std::uint64_t seed = 0xA55;
    /** What to maximise (Fig 11: Throughput; Fig 13: Weighted). */
    PmObjective objective = PmObjective::Throughput;
};

/** The SAnn power manager. */
class SAnnManager : public PowerManager
{
  public:
    explicit SAnnManager(const SAnnConfig &config = {});

    std::string name() const override { return "SAnn"; }
    const std::vector<int> &selectLevels(const ChipSnapshot &snap) override;

    /**
     * Derive the annealing seed from (config seed, epoch) so each
     * epoch's decision is independent of how many earlier epochs were
     * actually evaluated (phase-sampled engine contract).
     */
    void beginEpoch(std::uint64_t epochIndex) override;

    /** Evaluations consumed by the last invocation. */
    std::size_t lastEvals() const { return lastEvals_; }

  private:
    SAnnConfig config_;
    std::size_t lastEvals_ = 0;
    std::uint64_t epochSeed_ = 0;
    bool epochSeeded_ = false;
};

} // namespace varsched

#endif // VARSCHED_CORE_SANN_HH
