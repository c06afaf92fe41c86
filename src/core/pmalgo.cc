#include "core/pmalgo.hh"

namespace varsched
{

const std::vector<int> &
MaxLevelManager::selectLevels(const ChipSnapshot &snap)
{
    levels_.assign(snap.cores.size(),
                   static_cast<int>(snap.numLevels()) - 1);
    return levels_;
}

const std::vector<int> &
FoxtonStarManager::selectLevels(const ChipSnapshot &snap)
{
    const std::size_t n = snap.cores.size();
    const int top = static_cast<int>(snap.numLevels()) - 1;
    levels_.assign(n, top);
    if (n == 0)
        return levels_;

    // First satisfy the per-core cap (local, no round-robin needed).
    for (std::size_t i = 0; i < n; ++i) {
        const std::span<const double> power = snap.powerRow(i);
        while (levels_[i] > 0 &&
               power[static_cast<std::size_t>(levels_[i])] >
                   snap.pcoreMaxW) {
            --levels_[i];
        }
    }

    // Then reduce cores one step at a time, round-robin, until the
    // chip-wide budget is met or everything sits at the bottom.
    std::size_t cursor = 0;
    std::size_t stuck = 0;
    while (snap.powerAt(levels_) > snap.ptargetW && stuck < n) {
        if (levels_[cursor] > 0) {
            --levels_[cursor];
            stuck = 0;
        } else {
            ++stuck;
        }
        cursor = (cursor + 1) % n;
    }
    return levels_;
}

} // namespace varsched
