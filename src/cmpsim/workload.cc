#include "cmpsim/workload.hh"

#include <cassert>
#include <cmath>
#include <cstdlib>

namespace varsched
{

namespace
{

/** Relative per-unit activity shape for integer-dominated codes. */
ActivityVector
intShape()
{
    // Fetch, Decode, RegFile, IntExec, FpExec, LoadStore, L1I, L1D
    return ActivityVector{0.90, 0.80, 0.90, 1.00, 0.05, 0.70, 0.90, 0.80};
}

/** Relative per-unit activity shape for floating-point codes. */
ActivityVector
fpShape()
{
    return ActivityVector{0.70, 0.70, 0.90, 0.50, 1.00, 0.80, 0.60, 0.90};
}

/** Default three-phase structure scaled by a "phasiness" knob. */
std::vector<Phase>
makePhases(double phasiness, double dwellMs)
{
    std::vector<Phase> phases(3);
    // Phase 0: average behaviour.
    phases[0] = Phase{1.0, 1.0, 1.0, dwellMs, "avg"};
    // Phase 1: compute burst — lower CPI, far fewer misses, more
    // power (SPEC phase swings are large; see e.g. SimPoint studies).
    phases[1] = Phase{1.0 - 0.30 * phasiness, 1.0 - 0.65 * phasiness,
                      1.0 + 0.25 * phasiness, dwellMs * 0.6, "burst"};
    // Phase 2: memory lull — higher CPI, many more misses, less power.
    phases[2] = Phase{1.0 + 0.55 * phasiness, 1.0 + 1.6 * phasiness,
                      1.0 - 0.30 * phasiness, dwellMs * 0.8, "lull"};
    return phases;
}

/**
 * Long-dwell labelled phase set for synthetic service traffic:
 * diurnal-style steady / peak / lull swings measured in seconds, the
 * regime the phase-sampled tick engine exploits.
 */
std::vector<Phase>
makeTrafficPhases(double swing, double dwellMs)
{
    std::vector<Phase> phases(3);
    phases[0] = Phase{1.0, 1.0, 1.0, dwellMs, "steady"};
    phases[1] = Phase{1.0 - 0.20 * swing, 1.0 - 0.40 * swing,
                      1.0 + 0.20 * swing, dwellMs * 0.5, "peak"};
    phases[2] = Phase{1.0 + 0.35 * swing, 1.0 + 0.9 * swing,
                      1.0 - 0.25 * swing, dwellMs * 0.7, "lull"};
    return phases;
}

/**
 * Build one profile. cpiExe and memMpi decompose the Table 5 IPC via
 * 1/ipc = cpiExe + memMpi * 400 (400 cycles = 100 ns at 4 GHz).
 */
AppProfile
makeApp(const std::string &name, bool fp, double dynPowerW, double ipc,
        double cpiExe, double l2MpiFactor, double memFrac,
        double branchFrac, double hardBranchFrac, double depDist,
        double phasiness, double dwellMs)
{
    AppProfile app;
    app.name = name;
    app.isFloatingPoint = fp;
    app.dynPowerW = dynPowerW;
    app.ipcAt4GHz = ipc;
    app.cpiExe = cpiExe;
    app.memMpi = (1.0 / ipc - cpiExe) / 400.0;
    assert(app.memMpi >= 0.0);
    app.l2Mpi = app.memMpi * l2MpiFactor;
    app.activityShape = fp ? fpShape() : intShape();
    app.memFraction = memFrac;
    app.branchFraction = branchFrac;
    app.fpFraction = fp ? 0.55 : 0.02;
    app.hardBranchFraction = hardBranchFrac;
    app.depDistance = depDist;
    app.phases = makePhases(phasiness, dwellMs);
    return app;
}

} // namespace

const std::vector<AppProfile> &
specApplications()
{
    // Table 5 anchors (dynamic power at 4 GHz/1 V; IPC), with trace
    // parameters chosen to land the timing model near those anchors.
    static const std::vector<AppProfile> apps = {
        //      name      fp    W    ipc  cpiExe l2x  mem   br    hard  dep  phase dwell
        makeApp("applu",  true, 4.3, 1.1, 0.75, 6.0, 0.32, 0.03, 0.02, 4.0, 0.5, 220.0),
        makeApp("apsi",   true, 1.6, 0.1, 1.60, 4.0, 0.35, 0.05, 0.05, 4.0, 0.8, 150.0),
        makeApp("art",    true, 2.4, 0.2, 1.20, 4.0, 0.38, 0.06, 0.04, 3.5, 0.9, 120.0),
        makeApp("bzip2",  false,3.7, 1.1, 0.73, 8.0, 0.30, 0.13, 0.08, 7.0, 0.6, 180.0),
        makeApp("crafty", false,3.9, 1.1, 0.78, 10.0,0.28, 0.12, 0.10, 8.0, 0.2, 300.0),
        makeApp("equake", true, 2.1, 0.3, 1.10, 5.0, 0.36, 0.05, 0.03, 4.5, 0.7, 140.0),
        makeApp("gap",    false,3.5, 1.0, 0.80, 7.0, 0.30, 0.10, 0.06, 6.5, 0.4, 200.0),
        makeApp("gzip",   false,2.7, 0.7, 0.90, 8.0, 0.28, 0.14, 0.09, 5.5, 0.5, 160.0),
        makeApp("mcf",    false,1.5, 0.1, 1.40, 3.0, 0.40, 0.19, 0.12, 3.0, 0.9, 100.0),
        makeApp("mgrid",  true, 2.2, 0.4, 1.00, 6.0, 0.34, 0.02, 0.01, 8.0, 0.4, 260.0),
        makeApp("parser", false,2.8, 0.7, 0.85, 7.0, 0.30, 0.16, 0.10, 5.0, 0.5, 170.0),
        makeApp("swim",   true, 2.2, 0.3, 1.00, 7.0, 0.35, 0.02, 0.01, 9.0, 0.6, 240.0),
        makeApp("twolf",  false,2.3, 0.4, 1.10, 5.0, 0.33, 0.14, 0.11, 4.0, 0.7, 130.0),
        makeApp("vortex", false,4.4, 1.2, 0.68, 9.0, 0.32, 0.11, 0.05, 8.5, 0.3, 280.0),
    };
    return apps;
}

const std::vector<AppProfile> &
trafficApplications()
{
    // Service-style request mixes: the trace parameters reuse the
    // SPEC calibration ranges, but every profile dwells seconds per
    // phase (2000-5000 ms vs SPEC's 100-300 ms) so steady phases span
    // hundreds of DVFS epochs.
    static const std::vector<AppProfile> apps = [] {
        std::vector<AppProfile> out = {
            //      name        fp    W    ipc  cpiExe l2x  mem   br    hard  dep  phase dwell
            makeApp("web_front", false,3.4, 0.9, 0.80, 8.0, 0.30, 0.14, 0.08, 6.0, 0.5, 3000.0),
            makeApp("rpc_mid",   false,3.0, 0.8, 0.85, 7.0, 0.30, 0.12, 0.07, 6.0, 0.4, 4000.0),
            makeApp("kv_cache",  false,2.0, 0.3, 1.10, 4.0, 0.38, 0.10, 0.06, 3.5, 0.7, 2500.0),
            makeApp("analytics", true, 3.8, 1.0, 0.78, 6.0, 0.33, 0.04, 0.02, 5.0, 0.6, 5000.0),
            makeApp("media_enc", true, 4.2, 1.1, 0.74, 7.0, 0.31, 0.03, 0.02, 4.5, 0.3, 4500.0),
            makeApp("batch_etl", false,2.6, 0.5, 0.95, 6.0, 0.34, 0.11, 0.06, 5.0, 0.8, 2000.0),
        };
        for (auto &app : out) {
            const double swing =
                1.0 - app.phases[1].cpiScale > 0.0
                    ? (1.0 - app.phases[1].cpiScale) / 0.30
                    : 0.5;
            const double dwell = app.phases[0].meanDwellMs;
            app.phases = makeTrafficPhases(swing, dwell);
        }
        return out;
    }();
    return apps;
}

const AppProfile &
findApplication(const std::string &name)
{
    for (const auto &app : specApplications()) {
        if (app.name == name)
            return app;
    }
    std::abort();
}

std::vector<const AppProfile *>
randomWorkload(std::size_t numThreads, Rng &rng,
               const std::vector<AppProfile> *pool)
{
    const auto &apps = pool != nullptr ? *pool : specApplications();
    std::vector<const AppProfile *> out;
    out.reserve(numThreads);
    for (std::size_t i = 0; i < numThreads; ++i)
        out.push_back(&apps[rng.below(apps.size())]);
    return out;
}

PhaseSequencer::PhaseSequencer(const AppProfile &app, Rng rng)
    : app_(&app), rng_(rng)
{
    assert(!app.phases.empty());
    index_ = rng_.below(app_->phases.size());
    remainingMs_ = -app_->phases[index_].meanDwellMs *
        std::log(1.0 - rng_.uniform() + 1e-12);
}

const Phase &
PhaseSequencer::current() const
{
    return app_->phases[index_];
}

void
PhaseSequencer::advance(double dtMs)
{
    remainingMs_ -= dtMs;
    while (remainingMs_ <= 0.0) {
        // Uniform next-phase choice among the others.
        std::size_t next = rng_.below(app_->phases.size() - 1);
        if (next >= index_)
            ++next;
        index_ = next;
        remainingMs_ += -app_->phases[index_].meanDwellMs *
            std::log(1.0 - rng_.uniform() + 1e-12);
    }
}

std::size_t
PhaseSequencer::ticksToBoundary(double dtMs) const
{
    std::size_t ticks = 1;
    for (double left = remainingMs_ - dtMs; left > 0.0; left -= dtMs)
        ++ticks;
    return ticks;
}

} // namespace varsched
