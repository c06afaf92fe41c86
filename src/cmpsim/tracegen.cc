#include "cmpsim/tracegen.hh"

#include <algorithm>
#include <cmath>

#include "cmpsim/cache.hh"

namespace varsched
{

TraceGenerator::TraceGenerator(const AppProfile &app, Rng rng)
    : app_(&app), rng_(rng)
{
    // Pool sizes: hot fits comfortably in L1, warm in L2, cold in DRAM.
    hotBytes_ = 8 * 1024;
    warmBytes_ = 1024 * 1024;
    coldBytes_ = 4ull * 1024 * 1024 * 1024;

    // Private 64 MB-aligned address space per generator instance.
    addrBase_ = (1 + (rng_.next() & 0xFFFF)) * 0x4000000ull;

    // Per-access escape probabilities from per-instruction targets.
    const double memFrac = std::max(1e-6, app_->memFraction);
    pCold_ = std::clamp(app_->memMpi / memFrac, 0.0, 1.0);
    pWarm_ = std::clamp((app_->l2Mpi - app_->memMpi) / memFrac, 0.0,
                        1.0 - pCold_);

    // Branch sites: a hardBranchFraction subset is data-dependent
    // (50/50), the rest strongly biased and thus predictable.
    for (std::size_t i = 0; i < kBranchSites; ++i) {
        branchPc_[i] = 0x400000 + 4 * i * 37;
        const bool hard = rng_.uniform() < app_->hardBranchFraction;
        if (hard)
            branchBias_[i] = 0.5;
        else
            branchBias_[i] = rng_.uniform() < 0.5 ? 0.05 : 0.95;
    }
}

void
TraceGenerator::prefill(Cache &l1, Cache &l2) const
{
    for (std::uint64_t a = 0; a < warmBytes_; a += 64)
        l2.access(addrBase_ + 0x1000000ull + a);
    for (std::uint64_t a = 0; a < hotBytes_; a += 64) {
        l2.access(addrBase_ + a);
        l1.access(addrBase_ + a);
    }
}

std::uint64_t
TraceGenerator::pickAddress()
{
    const double u = rng_.uniform();
    ++seqCounter_;
    if (u < pCold_) {
        // Cold: uniform over a DRAM-sized region (shared: cold
        // streams miss the caches regardless of owner).
        return 0x4000000000ull + (rng_.next() % coldBytes_);
    }
    if (u < pCold_ + pWarm_) {
        // Warm: uniform over this thread's L2-resident, L1-evicting
        // region.
        return addrBase_ + 0x1000000ull + (rng_.next() % warmBytes_);
    }
    // Hot: mix of stride (spatial locality) and random reuse within a
    // small L1-resident set.
    if (rng_.uniform() < 0.5)
        return addrBase_ + (seqCounter_ * 8) % hotBytes_;
    return addrBase_ + (rng_.next() % hotBytes_);
}

SynthInstr
TraceGenerator::next()
{
    SynthInstr instr;

    const double u = rng_.uniform();
    if (u < app_->branchFraction) {
        instr.type = InstrType::Branch;
        const std::size_t site = rng_.below(kBranchSites);
        instr.addr = branchPc_[site];
        instr.taken = rng_.uniform() < branchBias_[site];
    } else if (u < app_->branchFraction + app_->memFraction) {
        // Roughly 2/3 loads, 1/3 stores.
        instr.type = rng_.uniform() < 0.67 ? InstrType::Load
                                           : InstrType::Store;
        instr.addr = pickAddress();
    } else {
        instr.type = rng_.uniform() < app_->fpFraction
            ? InstrType::FpAlu
            : InstrType::IntAlu;
    }

    // Geometric-ish dependency distance around the profile mean; 0
    // (no dependency) is possible for independent work.
    const double mean = app_->depDistance;
    const double draw = -mean * std::log(1.0 - rng_.uniform() + 1e-12);
    instr.depDistance = static_cast<std::uint32_t>(
        std::min(draw, 64.0));
    return instr;
}

} // namespace varsched
