#include "cmpsim/core.hh"

#include <algorithm>
#include <cmath>

namespace varsched
{

namespace
{

// Table 4 microarchitecture.
constexpr unsigned kFetchWidth = 4;
constexpr unsigned kIssueWidth = 2;
constexpr unsigned kRobSize = 80;
/** Frontend refill penalty after a mispredict, cycles. */
constexpr unsigned kMispredictPenalty = 7;
constexpr unsigned kIntLatency = 1;
constexpr unsigned kFpLatency = 4;
constexpr unsigned kL1HitCycles = 2;
constexpr unsigned kL2HitCycles = 10;
/** Main memory latency, nanoseconds (400 cycles at 4 GHz). */
constexpr double kMemLatencyNs = 100.0;

} // namespace

CoreModel::CoreModel(const AppProfile &app, Cache &l2, Rng trace,
                     double freqHz)
    : trace_(app, trace), l1d_(l1Config()), l2_(&l2),
      memCycles_(kMemLatencyNs * 1e-9 * freqHz)
{
    trace_.prefill(l1d_, *l2_);
}

void
CoreModel::step()
{
    const bool record = retired_ < quota_;
    const SynthInstr instr = trace_.next();
    const std::uint64_t i = index_++;

    // --- Fetch: frontend bandwidth plus any branch redirect, gated
    // by ROB availability (the slot of instr i-robSize must have
    // committed).
    double fetch = std::max(fetchClock_, redirectUntil_);
    if (i >= kRobSize) {
        const double robFree = commit_[(i - kRobSize) % kWindow];
        fetch = std::max(fetch, robFree);
    }
    fetchClock_ = fetch + 1.0 / static_cast<double>(kFetchWidth);

    // --- Dependency: wait for the producer's completion.
    double ready = fetch + 1.0; // decode/rename
    if (instr.depDistance != 0 && instr.depDistance < kWindow &&
        instr.depDistance <= i) {
        ready = std::max(ready,
                         completion_[(i - instr.depDistance) % kWindow]);
    }

    // --- Issue: bandwidth token clock.
    double issue = std::max(ready, issueClock_);
    issueClock_ = std::max(issueClock_,
                           issue - 8.0) + // cap token credit window
        1.0 / static_cast<double>(kIssueWidth);

    // --- Execute.
    double latency = kIntLatency;
    switch (instr.type) {
      case InstrType::IntAlu:
        if (record)
            ++stats_.intOps;
        break;
      case InstrType::FpAlu:
        latency = kFpLatency;
        if (record)
            ++stats_.fpOps;
        break;
      case InstrType::Store:
        // Stores retire through the store buffer; the accesses happen
        // off the critical path but still update cache state and miss
        // counts (write-allocate).
        if (record)
            ++stats_.stores;
        if (!l1d_.access(instr.addr)) {
            if (record)
                ++stats_.l1dMisses;
            if (!l2_->access(instr.addr)) {
                if (record)
                    ++stats_.l2Misses;
                // Store misses consume memory bandwidth, delaying
                // later load misses, though commit does not wait.
                memPortFree_ = std::max(memPortFree_, issue) +
                    memCycles_ * 0.85;
            }
        }
        latency = 1.0;
        break;
      case InstrType::Load:
        if (record)
            ++stats_.loads;
        if (l1d_.access(instr.addr)) {
            latency = kL1HitCycles;
        } else if (l2_->access(instr.addr)) {
            if (record)
                ++stats_.l1dMisses;
            latency = kL2HitCycles;
        } else {
            if (record) {
                ++stats_.l1dMisses;
                ++stats_.l2Misses;
            }
            // Misses largely serialise: SPEC-like miss streams carry
            // address dependences (pointer chasing) and bank
            // conflicts, so back-to-back misses overlap only a little.
            const double start = std::max(issue, memPortFree_);
            memPortFree_ = start + memCycles_ * 0.85;
            latency = (start - issue) + memCycles_;
        }
        break;
      case InstrType::Branch:
        if (record)
            ++stats_.branches;
        if (!predictor_.resolve(instr.addr, instr.taken)) {
            if (record)
                ++stats_.branchMispredicts;
            redirectUntil_ = std::max(
                redirectUntil_,
                issue + latency + static_cast<double>(kMispredictPenalty));
        }
        break;
    }

    const double complete = issue + latency;
    completion_[i % kWindow] = complete;

    // In-order commit.
    const double commit = std::max(complete, lastCommit_) +
        1.0 / 2.0; // commit width 2
    commit_[i % kWindow] = commit;
    lastCommit_ = commit;
    if (record) {
        ++retired_;
        windowEnd_ = commit;
    }
}

void
CoreModel::advance(std::uint64_t count)
{
    for (std::uint64_t k = 0; k < count; ++k)
        step();
}

void
CoreModel::openWindow(std::uint64_t numInstrs)
{
    stats_ = SimStats{};
    quota_ = numInstrs;
    retired_ = 0;
    windowStart_ = lastCommit_;
    windowEnd_ = lastCommit_;
}

SimStats
CoreModel::run(std::uint64_t numInstrs)
{
    advance(warmupLength(numInstrs));
    openWindow(numInstrs);
    advance(numInstrs);
    return windowStats();
}

SimStats
CoreModel::windowStats() const
{
    SimStats stats = stats_;
    stats.instructions = retired_;
    stats.cycles = static_cast<std::uint64_t>(
        std::max(1.0, windowEnd_ - windowStart_));

    // Measured per-unit activity factors: events per cycle over each
    // unit's capacity.
    const double cycles = static_cast<double>(stats.cycles);
    const double instrs = static_cast<double>(stats.instructions);
    const double memOps = static_cast<double>(stats.loads + stats.stores);
    auto &act = stats.unitActivity;
    act[static_cast<std::size_t>(CoreUnit::Fetch)] =
        instrs / (cycles * kFetchWidth);
    act[static_cast<std::size_t>(CoreUnit::Decode)] =
        instrs / (cycles * kFetchWidth);
    act[static_cast<std::size_t>(CoreUnit::RegFile)] =
        instrs * 3.0 / (cycles * 6.0);
    act[static_cast<std::size_t>(CoreUnit::IntExec)] =
        static_cast<double>(stats.intOps + stats.branches) /
        (cycles * kIssueWidth);
    act[static_cast<std::size_t>(CoreUnit::FpExec)] =
        static_cast<double>(stats.fpOps) / cycles;
    act[static_cast<std::size_t>(CoreUnit::LoadStore)] = memOps / cycles;
    act[static_cast<std::size_t>(CoreUnit::L1I)] =
        instrs / (cycles * kFetchWidth);
    act[static_cast<std::size_t>(CoreUnit::L1D)] = memOps / cycles;
    for (auto &a : act)
        a = std::min(a, 1.0);

    return stats;
}

} // namespace varsched
