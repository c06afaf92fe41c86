#include "core/parallel.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace varsched
{

double
barrierSpeed(const ChipSnapshot &snap, const std::vector<int> &levels)
{
    assert(levels.size() == snap.cores.size());
    double worst = 1e300;
    for (std::size_t i = 0; i < snap.cores.size(); ++i) {
        const std::size_t k = snap.cell(i, levels[i]);
        worst = std::min(worst, snap.ipc[k] * snap.freqHz[k] / 1.0e6);
    }
    return snap.cores.empty() ? 0.0 : worst;
}

bool
solveWaterFill(const LinOptFit &fit, std::vector<double> &x, double &pace,
               LpOrder &order)
{
    const std::size_t n = fit.a.size();
    x.resize(n);
    order.clear();
    double room = fit.budget;
    double paceCap = std::numeric_limits<double>::infinity();
    double lo = 0.0, hi = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!coreRange(fit, i, lo, hi, x[i]))
            return false;
        room -= fit.b[i] * x[i];
        // A trading worker's pace a_i x_i + d_i rises from its start
        // towards the far end of its range; any other worker's pace is
        // fixed at its start, which is already its best.
        const bool trades = fit.a[i] * fit.b[i] > 0.0;
        const double end = !trades ? x[i] : x[i] == lo ? hi : lo;
        paceCap = std::min(paceCap, fit.a[i] * end + fit.d[i]);
        if (trades)
            order.emplace_back(fit.a[i] * x[i] + fit.d[i], i);
    }
    if (room < 0.0 || paceCap < 0.0)
        return false;

    // Budget use above the starts at pace t is
    // sum over trading workers of (b_i / a_i) * max(0, t - knee_i):
    // convex and nondecreasing in t. Walk the knees upwards; on the
    // segment where the use crosses the room, solve for t.
    std::sort(order.begin(), order.end());
    double slope = 0.0;  // sum of b_i / a_i over the workers raised
    double offset = 0.0; // sum of (b_i / a_i) knee_i over them
    for (const auto &[knee, i] : order) {
        if (knee >= paceCap || slope * knee - offset > room)
            break;
        const double rate = fit.b[i] / fit.a[i];
        slope += rate;
        offset += rate * knee;
    }
    pace = slope > 0.0 ? std::min(paceCap, (room + offset) / slope)
                       : paceCap;
    if (pace < 0.0)
        return false; // even t = 0 costs more than the budget

    for (const auto &[knee, i] : order) {
        if (knee >= pace)
            break;
        coreRange(fit, i, lo, hi, x[i]);
        const double step =
            std::min(hi - lo, (pace - knee) / std::abs(fit.a[i]));
        x[i] += fit.b[i] > 0.0 ? step : -step;
    }
    return true;
}

const std::vector<int> &
LinOptMaxMinManager::selectLevels(const ChipSnapshot &snap)
{
    const std::size_t n = snap.cores.size();
    levels_.assign(n, 0);
    if (n == 0)
        return levels_;

    const std::size_t numLevels = snap.numLevels();
    // Same linear fits as LinOpt (core/linopt.cc).
    fitLinOpt(snap, 3, PmObjective::Throughput, fit_);
    double pace = 0.0;
    if (!solveWaterFill(fit_, x_, pace, order_))
        return levels_;
    for (std::size_t i = 0; i < n; ++i)
        levels_[i] =
            roundDownLevel(snap.voltage, snap.voltage.front() + x_[i]);

    // Sensor-guided repair (monitored powers, as in LinOpt):
    // enforce caps, then budget by trimming the step that costs the
    // barrier the least — i.e. the *fastest* worker steps down first.
    auto corePower = [&](std::size_t i, int level) {
        return snap.powerW[snap.cell(i, level)];
    };
    auto coreMips = [&](std::size_t i, int level) {
        return snap.ipcRow(i)[numLevels / 2] *
            snap.freqHz[snap.cell(i, level)] / 1.0e6;
    };

    for (std::size_t i = 0; i < n; ++i) {
        while (levels_[i] > 0 && corePower(i, levels_[i]) > snap.pcoreMaxW)
            --levels_[i];
    }
    while (snap.powerAt(levels_) > snap.ptargetW) {
        std::size_t fastest = n;
        double best = -1.0;
        for (std::size_t i = 0; i < n; ++i) {
            if (levels_[i] == 0)
                continue;
            const double pace = coreMips(i, levels_[i]);
            if (pace > best) {
                best = pace;
                fastest = i;
            }
        }
        if (fastest == n)
            break;
        --levels_[fastest];
    }

    // Refill remaining slack on the *slowest* worker — the one gating
    // the barrier.
    for (;;) {
        std::size_t slowest = n;
        double worst = 1e300;
        for (std::size_t i = 0; i < n; ++i) {
            if (levels_[i] + 1 >= static_cast<int>(numLevels))
                continue;
            const double pace = coreMips(i, levels_[i]);
            if (pace < worst) {
                worst = pace;
                slowest = i;
            }
        }
        if (slowest == n)
            break;
        const int next = levels_[slowest] + 1;
        const double dPower = corePower(slowest, next) -
            corePower(slowest, levels_[slowest]);
        if (snap.powerAt(levels_) + dPower > snap.ptargetW ||
            corePower(slowest, next) > snap.pcoreMaxW) {
            break;
        }
        levels_[slowest] = next;
    }
    return levels_;
}

} // namespace varsched
