#include "core/sann.hh"

#include <algorithm>

#include "runtime/metrics.hh"
#include "solver/annealing.hh"
#include "solver/rng.hh"

namespace varsched
{

namespace
{

/** Initial annealing temperature per thread (kMIPS units). */
constexpr double kTempPerThread = 0.4;

} // namespace

SAnnManager::SAnnManager(const SAnnConfig &config) : config_(config)
{
}

SnapshotAnnealEnergy::SnapshotAnnealEnergy(const ChipSnapshot &snap,
                                           bool weighted)
    : snap_(&snap), weighted_(weighted)
{
}

double
SnapshotAnnealEnergy::energyOfSums() const
{
    const double obj = weighted_ ? objSum_ * 2000.0 : objSum_;
    double e = -obj / 1000.0;
    if (power_ > snap_->ptargetW)
        e += (power_ - snap_->ptargetW) * kPenaltyPerWatt;
    e += capEx_ * kPenaltyPerWatt;
    return e;
}

void
SnapshotAnnealEnergy::noteVisited()
{
    if (power_ > snap_->ptargetW || coreViol_ > 0)
        return;
    const double obj = weighted_ ? objSum_ * 2000.0 : objSum_;
    if (obj > bestFeasibleObj_) {
        bestFeasibleObj_ = obj;
        bestFeasible_ = state_;
    }
}

double
SnapshotAnnealEnergy::fullEnergy(const std::vector<int> &state)
{
    state_ = state;
    pending_.clear();
    power_ = snap_->uncorePowerW;
    objSum_ = 0.0;
    capEx_ = 0.0;
    coreViol_ = 0;
    const ChipSnapshot &s = *snap_;
    for (std::size_t i = 0; i < s.cores.size(); ++i) {
        const std::size_t k = s.cell(i, state[i]);
        const double cp = s.powerW[k];
        power_ += cp;
        objSum_ += weighted_
            ? s.ipc[k] * s.freqHz[k] / 1.0e6 / s.cores[i].refMips
            : s.ipc[k] * s.freqHz[k] / 1.0e6;
        if (cp > snap_->pcoreMaxW) {
            capEx_ += cp - snap_->pcoreMaxW;
            ++coreViol_;
        }
    }
    noteVisited();
    return energyOfSums();
}

double
SnapshotAnnealEnergy::moveDelta(std::size_t coord, int oldLevel,
                                int newLevel)
{
    if (pending_.empty()) {
        power0_ = power_;
        objSum0_ = objSum_;
        capEx0_ = capEx_;
        coreViol0_ = coreViol_;
    }
    const double before = energyOfSums();
    const ChipSnapshot &s = *snap_;
    const std::size_t lo = s.cell(coord, oldLevel);
    const std::size_t ln = s.cell(coord, newLevel);
    const double pOld = s.powerW[lo];
    const double pNew = s.powerW[ln];
    power_ += pNew - pOld;
    objSum_ += weighted_
        ? (s.ipc[ln] * s.freqHz[ln] - s.ipc[lo] * s.freqHz[lo]) /
              1.0e6 / s.cores[coord].refMips
        : (s.ipc[ln] * s.freqHz[ln] - s.ipc[lo] * s.freqHz[lo]) /
              1.0e6;
    if (pOld > snap_->pcoreMaxW) {
        capEx_ -= pOld - snap_->pcoreMaxW;
        --coreViol_;
    }
    if (pNew > snap_->pcoreMaxW) {
        capEx_ += pNew - snap_->pcoreMaxW;
        ++coreViol_;
    }
    pending_.emplace_back(coord, oldLevel);
    state_[coord] = newLevel;
    return energyOfSums() - before;
}

void
SnapshotAnnealEnergy::onCandidate(double candidateEnergy)
{
    (void)candidateEnergy;
    noteVisited();
}

void
SnapshotAnnealEnergy::commit()
{
    pending_.clear();
}

void
SnapshotAnnealEnergy::discard()
{
    if (pending_.empty())
        return;
    for (auto it = pending_.rbegin(); it != pending_.rend(); ++it)
        state_[it->first] = it->second;
    pending_.clear();
    power_ = power0_;
    objSum_ = objSum0_;
    capEx_ = capEx0_;
    coreViol_ = coreViol0_;
}

const std::vector<int> &
SAnnManager::selectLevels(const ChipSnapshot &snap)
{
    const std::size_t n = snap.cores.size();
    lastEvals_ = 0;
    levels_.clear();
    if (n == 0)
        return levels_;

    const int numLevels = static_cast<int>(snap.numLevels());

    // Greedy initial state: top levels, then per-core cap, then
    // round-robin down to the budget (the Foxton*-style heuristic the
    // paper seeds SAnn with).
    std::vector<int> initial(n, numLevels - 1);
    for (std::size_t i = 0; i < n; ++i) {
        while (initial[i] > 0 &&
               snap.powerW[snap.cell(i, initial[i])] > snap.pcoreMaxW)
            --initial[i];
    }
    std::size_t cursor = 0, stuck = 0;
    while (snap.powerAt(initial) > snap.ptargetW && stuck < n) {
        if (initial[cursor] > 0) {
            --initial[cursor];
            stuck = 0;
        } else {
            ++stuck;
        }
        cursor = (cursor + 1) % n;
    }

    // Energy: -throughput (kMIPS) plus steep penalties for violating
    // the chip or per-core budgets, so infeasible states are passable
    // but never optimal. The oracle keeps running sums so each move is
    // scored in O(1), and tracks the best *feasible* state visited on
    // the side — the chain's lowest-energy state may carry a tiny
    // violation, which a real controller cannot deploy. Weighted mode
    // scores normalised progress rescaled (x2000) into the same
    // numeric range as kMIPS so the annealing temperature and penalty
    // weights keep their meaning.
    SnapshotAnnealEnergy energy(
        snap, config_.objective == PmObjective::Weighted);

    AnnealOptions opts;
    opts.maxEvals = config_.maxEvals;
    // The paper raises the initial AT with problem complexity.
    opts.initialTemp = kTempPerThread * static_cast<double>(n);
    opts.seed = epochSeeded_ ? epochSeed_ : config_.seed;

    const std::vector<int> levelBounds(n, numLevels);
    AnnealResult result =
        annealMinimize(initial, levelBounds, energy, opts);
    lastEvals_ = result.evals;
    {
        static metrics::Counter &evals =
            metrics::Registry::global().counter("sann.evals");
        static metrics::Counter &accepted =
            metrics::Registry::global().counter("sann.accepted");
        static metrics::Counter &rejected =
            metrics::Registry::global().counter("sann.rejected");
        evals.add(result.evals);
        accepted.add(result.accepted);
        rejected.add(result.evals >= result.accepted
                         ? result.evals - result.accepted
                         : 0);
    }

    // A chain optimum carrying a violation falls back to the best
    // feasible state actually visited, or the greedy seed as a last
    // resort.
    if (snap.feasible(result.best))
        levels_ = std::move(result.best);
    else if (!energy.bestFeasible().empty())
        levels_ = energy.bestFeasible();
    else
        levels_ = std::move(initial);
    return levels_;
}

void
SAnnManager::beginEpoch(std::uint64_t epochIndex)
{
    epochSeed_ = deriveSeed(config_.seed, 0xA55A, epochIndex);
    epochSeeded_ = true;
}

} // namespace varsched
