#include "core/metrics.hh"

#include <bit>
#include <cassert>

namespace varsched
{

double
ed2Of(double powerW, double mips)
{
    assert(mips > 0.0);
    // P / TP^3: energy per instruction (P/TP) times the square of the
    // time per instruction (1/TP)^2.
    return powerW / (mips * mips * mips);
}

double
weightedThroughput(const ChipCondition &cond,
                   const std::vector<CoreWork> &work)
{
    double sum = 0.0;
    for (std::size_t c = 0; c < work.size(); ++c) {
        if (work[c].app == nullptr)
            continue;
        sum += cond.coreIpc[c] / work[c].app->ipcAt4GHz;
    }
    return sum;
}

double
weightedProgress(const ChipCondition &cond,
                 const std::vector<CoreWork> &work)
{
    double sum = 0.0;
    for (std::size_t c = 0; c < work.size(); ++c) {
        if (work[c].app == nullptr)
            continue;
        const double refIps = work[c].app->ipcAt4GHz * 4.0e9;
        sum += cond.coreIpc[c] * cond.coreFreqHz[c] / refIps;
    }
    return sum;
}

double
averageActiveFrequency(const ChipCondition &cond,
                       const std::vector<CoreWork> &work)
{
    double sum = 0.0;
    std::size_t active = 0;
    for (std::size_t c = 0; c < work.size(); ++c) {
        if (work[c].app == nullptr)
            continue;
        sum += cond.coreFreqHz[c];
        ++active;
    }
    return active ? sum / static_cast<double>(active) : 0.0;
}

void
appendPowerRun(std::vector<PowerRun> &trace, double powerW,
               std::uint64_t ticks)
{
    assert(ticks > 0);
    if (!trace.empty() &&
        std::bit_cast<std::uint64_t>(trace.back().powerW) ==
            std::bit_cast<std::uint64_t>(powerW))
        trace.back().ticks += ticks;
    else
        trace.push_back({powerW, ticks});
}

double
capViolationFraction(const std::vector<PowerRun> &powerTrace,
                     double ptargetW, double tolFraction)
{
    if (powerTrace.empty() || !(ptargetW > 0.0))
        return 0.0;
    std::uint64_t violated = 0, ticks = 0;
    const double limit = ptargetW * (1.0 + tolFraction);
    for (const PowerRun &run : powerTrace) {
        if (run.powerW > limit)
            violated += run.ticks;
        ticks += run.ticks;
    }
    return static_cast<double>(violated) / static_cast<double>(ticks);
}

} // namespace varsched
