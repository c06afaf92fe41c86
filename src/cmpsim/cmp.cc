#include "cmpsim/cmp.hh"

#include <algorithm>
#include <cassert>

namespace varsched
{

namespace
{

/** Instructions each core runs per round-robin turn. */
constexpr std::uint64_t kQuantum = 256;

} // namespace

CmpModel::CmpModel(const std::vector<const AppProfile *> &apps, Rng rng)
    : l2_(l2Config())
{
    assert(!apps.empty());
    // Each core prefills its resident set into the shared L2 as it is
    // built; capacity pressure between sets is then visible at once.
    cores_.reserve(apps.size());
    for (std::size_t c = 0; c < apps.size(); ++c)
        cores_.emplace_back(*apps[c], l2_, rng.fork(1 + c));
}

std::vector<SimStats>
CmpModel::run(std::uint64_t instrsPerCore)
{
    // Shared warmup: interleave a slice of every core so the shared
    // L2 reaches a contended steady state before measuring.
    const std::uint64_t warmup = CoreModel::warmupLength(instrsPerCore);
    for (std::uint64_t done = 0; done < warmup; done += kQuantum) {
        for (auto &core : cores_)
            core.advance(std::min(kQuantum, warmup - done));
    }
    for (auto &core : cores_)
        core.openWindow(instrsPerCore);

    // Measured region: round-robin quanta until every core's window
    // has committed (cores that finish early keep running uncounted
    // so they continue to exert L2 pressure on the stragglers).
    const auto done = [](const CoreModel &core) {
        return core.windowDone();
    };
    while (!std::all_of(cores_.begin(), cores_.end(), done)) {
        for (auto &core : cores_)
            core.advance(kQuantum);
    }

    std::vector<SimStats> out;
    out.reserve(cores_.size());
    for (const auto &core : cores_)
        out.push_back(core.windowStats());
    return out;
}

} // namespace varsched
