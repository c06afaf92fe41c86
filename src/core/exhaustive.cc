#include "core/exhaustive.hh"

#include <cassert>
#include <cmath>

namespace varsched
{

ExhaustiveManager::ExhaustiveManager(std::size_t maxStates,
                                     PmObjective objective)
    : maxStates_(maxStates), objective_(objective)
{
}

const std::vector<int> &
ExhaustiveManager::selectLevels(const ChipSnapshot &snap)
{
    const std::size_t n = snap.cores.size();
    lastStates_ = 0;
    levels_.assign(n, 0);
    if (n == 0)
        return levels_;

    const int numLevels = static_cast<int>(snap.numLevels());
    const double stateCount =
        std::pow(static_cast<double>(numLevels), static_cast<double>(n));
    assert(stateCount <= static_cast<double>(maxStates_) &&
           "exhaustive search space too large");
    (void)stateCount;

    std::vector<int> state(n, 0);
    double bestMips = -1.0;

    // Per-(core, level) tables in the snapshot's layout [core *
    // numLevels + level]: the power draw is the snapshot's own table;
    // the objective contribution and whether the level busts the
    // per-core cap are folded once, so scoring a state reads three
    // flat arrays.
    const auto L = static_cast<std::size_t>(numLevels);
    const bool weighted = objective_ == PmObjective::Weighted;
    const std::vector<double> &powTab = snap.powerW;
    assert(powTab.size() == n * L && snap.ipc.size() == n * L &&
           snap.freqHz.size() == n * L);
    std::vector<double> objTab(n * L);
    std::vector<char> violTab(n * L);
    for (std::size_t k = 0; k < n * L; ++k) {
        const double mips = snap.ipc[k] * snap.freqHz[k] / 1.0e6;
        objTab[k] = weighted ? mips / snap.cores[k / L].refMips : mips;
        violTab[k] = powTab[k] > snap.pcoreMaxW + 1e-9 ? 1 : 0;
    }

    // Suffix folds over cores i..n-1 at the current state: the
    // odometer increments position `pos` after resetting everything
    // below it, so only suffixes 0..pos need refolding — position pos
    // rolls over with probability numLevels^-pos, making the per-state
    // rescore O(1) amortised instead of O(n). The folds are a pure
    // function of the state (descending-index summation), so no
    // floating-point drift accumulates across the enumeration.
    std::vector<double> sufPow(n + 1, 0.0), sufObj(n + 1, 0.0);
    std::vector<int> sufViol(n + 1, 0);
    const auto refold = [&](std::size_t i) {
        const std::size_t k =
            i * L + static_cast<std::size_t>(state[i]);
        sufPow[i] = powTab[k] + sufPow[i + 1];
        sufObj[i] = objTab[k] + sufObj[i + 1];
        sufViol[i] = violTab[k] + sufViol[i + 1];
    };
    for (std::size_t i = n; i-- > 0;)
        refold(i);

    for (;;) {
        ++lastStates_;
        if (sufViol[0] == 0 &&
            snap.uncorePowerW + sufPow[0] <= snap.ptargetW + 1e-9) {
            const double mips = sufObj[0];
            if (mips > bestMips) {
                bestMips = mips;
                levels_ = state;
            }
        }
        // Odometer increment.
        std::size_t pos = 0;
        while (pos < n) {
            if (++state[pos] < numLevels)
                break;
            state[pos] = 0;
            ++pos;
        }
        if (pos == n)
            break;
        for (std::size_t i = pos + 1; i-- > 0;)
            refold(i);
    }

    return levels_; // all zero when no state was feasible
}

} // namespace varsched
