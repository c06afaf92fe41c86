#include "cmpsim/perfmodel.hh"

namespace varsched
{

MeasuredApp
measureApplication(const AppProfile &app, std::uint64_t numInstrs,
                   double freqHz, std::uint64_t seed)
{
    Cache l2(l2Config());
    CoreModel core(app, l2, Rng(seed).fork(1), freqHz);
    MeasuredApp out;
    out.stats = core.run(numInstrs);
    out.ipc = out.stats.ipc();

    DynamicPowerModel dyn;
    out.dynPowerW = dyn.corePower(out.stats.unitActivity, 1.0, freqHz);

    const double instrsPerSec = out.ipc * freqHz;
    out.l2AccessesPerSec =
        out.stats.l1Mpki() / 1000.0 * instrsPerSec;
    return out;
}

} // namespace varsched
