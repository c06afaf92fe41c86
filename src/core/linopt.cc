#include "core/linopt.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "solver/matrix.hh"

namespace varsched
{

LinOptManager::LinOptManager(const LinOptConfig &config) : config_(config)
{
    // Validated in release builds too: an out-of-range sample count
    // would silently index past sampleLevels in selectLevels.
    if (config_.powerSamplePoints != 2 &&
        config_.powerSamplePoints != 3) {
        throw std::invalid_argument(
            "LinOptConfig::powerSamplePoints must be 2 or 3 (got " +
            std::to_string(config_.powerSamplePoints) + ")");
    }
}

void
fitLinOpt(const ChipSnapshot &snap, int powerSamplePoints,
          PmObjective objective, LinOptFit &fit)
{
    assert(powerSamplePoints == 2 || powerSamplePoints == 3);
    const std::size_t n = snap.cores.size();
    const std::size_t numLevels = snap.voltage.size();
    const double vLow = snap.voltage.front();
    fit.a.resize(n);
    fit.d.resize(n);
    fit.b.resize(n);
    fit.cap.resize(n);
    fit.span = snap.voltage.back() - vLow;
    fit.budget = snap.ptargetW - snap.uncorePowerW;

    // Power measurement points: Vlow, (Vmid,) Vhigh.
    const auto points = static_cast<std::size_t>(powerSamplePoints);
    const std::size_t sampleLevels[3] = {
        0, points == 3 ? numLevels / 2 : numLevels - 1, numLevels - 1};
    double pv[3], pw[3];

    for (std::size_t i = 0; i < n; ++i) {
        // f_i(v): fit over the full manufacturer table.
        const auto [fb, fc] =
            fitLine(snap.voltage.data(), snap.freqRow(i).data(), numLevels);

        // Objective: tp_i = ipc_i * f_i(v) with IPC read once (at the
        // middle level) and assumed frequency-independent. In
        // weighted mode every thread's throughput is normalised by
        // its reference MIPS, so slow-intrinsic threads count too.
        const double ipc = snap.ipcRow(i)[numLevels / 2];
        const double weight = objective == PmObjective::Weighted
            ? 1.0 / snap.cores[i].refMips
            : 1.0;
        fit.a[i] = weight * ipc * fb / 1.0e6; // (weighted) MIPS per volt
        fit.d[i] = fit.a[i] * vLow + weight * ipc * fc / 1.0e6;

        // p_i(v) = b_i v + c_i from the sampled sensor powers (Fig 1).
        const std::span<const double> power = snap.powerRow(i);
        for (std::size_t s = 0; s < points; ++s) {
            pv[s] = snap.voltage[sampleLevels[s]];
            pw[s] = power[sampleLevels[s]];
        }
        const auto [pb, pc] = fitLine(pv, pw, points);
        fit.b[i] = pb;
        fit.cap[i] = snap.pcoreMaxW - pc - pb * vLow;
        fit.budget -= pb * vLow + pc;
    }
}

bool
coreRange(const LinOptFit &fit, std::size_t i, double &lo, double &hi,
          double &start)
{
    const double b = fit.b[i];
    lo = 0.0;
    hi = fit.span;
    if (b > 0.0)
        hi = std::min(hi, fit.cap[i] / b);
    else if (b < 0.0)
        lo = std::max(lo, fit.cap[i] / b);
    else if (fit.cap[i] < 0.0)
        return false;
    start = b < 0.0 || (b == 0.0 && fit.a[i] > 0.0) ? hi : lo;
    return lo <= hi;
}

bool
solveRatioRule(const LinOptFit &fit, std::vector<double> &x,
               LpOrder &order)
{
    const std::size_t n = fit.a.size();
    x.resize(n);
    order.clear();
    double room = fit.budget;
    double lo = 0.0, hi = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!coreRange(fit, i, lo, hi, x[i]))
            return false;
        room -= fit.b[i] * x[i];
        if (fit.a[i] * fit.b[i] > 0.0)
            order.emplace_back(-fit.a[i] / fit.b[i], i);
    }
    if (room < 0.0)
        return false;

    // Best objective per watt first; equal ratios by core index.
    std::sort(order.begin(), order.end());
    for (const auto &[key, i] : order) {
        double start = 0.0;
        coreRange(fit, i, lo, hi, start);
        const double cost = std::abs(fit.b[i]);
        const double step = std::min(hi - lo, room / cost);
        x[i] += fit.b[i] > 0.0 ? step : -step;
        room -= cost * step;
        if (step < hi - lo)
            break; // the budget binds
    }
    return true;
}

int
roundDownLevel(const std::vector<double> &voltage, double v)
{
    int level = 0;
    for (std::size_t l = 0; l < voltage.size(); ++l) {
        if (voltage[l] <= v + 1e-9)
            level = static_cast<int>(l);
    }
    return level;
}

const std::vector<int> &
LinOptManager::selectLevels(const ChipSnapshot &snap)
{
    diag_.feasible = true;
    diag_.pivots = 0;
    diag_.continuousV.clear();
    const std::size_t n = snap.cores.size();
    levels_.assign(n, 0);
    if (n == 0)
        return levels_;

    const std::size_t numLevels = snap.numLevels();
    const double vLow = snap.voltage.front();
    fitLinOpt(snap, config_.powerSamplePoints, config_.objective, fit_);

    if (!solveRatioRule(fit_, x_, order_)) {
        // Budget unreachable even at Vlow: pin everything to the
        // bottom level — the closest the controller can get.
        diag_.feasible = false;
        diag_.continuousV.assign(n, vLow);
        return levels_;
    }

    // Round the continuous voltages down to legal levels.
    diag_.continuousV.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double v = vLow + x_[i];
        diag_.continuousV[i] = v;
        diag_.pivots += x_[i] > 0.0 ? 1 : 0;
        levels_[i] = roundDownLevel(snap.voltage, v);
    }

    // The LP solution can overshoot or undershoot the real budget
    // because the power model was linearised. The running system
    // continuously monitors total and per-core power against the
    // targets (Section 5.2, last paragraph), so the controller closes
    // the loop on the *monitored* powers: trim the least costly step
    // down while over budget, then (optionally) refill remaining
    // slack with the best marginal MIPS-per-watt step up.
    auto corePower = [&](std::size_t i, int level) {
        return snap.powerW[snap.cell(i, level)];
    };
    auto coreMips = [&](std::size_t i, int level) {
        // IPC assumed frequency-independent, as in the objective;
        // weighted mode scores normalised progress instead of MIPS.
        const double ipc = snap.ipcRow(i)[numLevels / 2];
        const double weight = config_.objective == PmObjective::Weighted
            ? 1.0 / snap.cores[i].refMips
            : 1.0;
        return weight * ipc * snap.freqHz[snap.cell(i, level)] / 1.0e6;
    };

    for (std::size_t i = 0; i < n; ++i) {
        while (levels_[i] > 0 &&
               corePower(i, levels_[i]) > snap.pcoreMaxW) {
            --levels_[i];
        }
    }
    while (snap.powerAt(levels_) > snap.ptargetW) {
        double bestCost = 1e300;
        std::size_t bestCore = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (levels_[i] == 0)
                continue;
            const double dPower = corePower(i, levels_[i]) -
                corePower(i, levels_[i] - 1);
            const double dMips = coreMips(i, levels_[i]) -
                coreMips(i, levels_[i] - 1);
            const double cost =
                dPower > 1e-12 ? dMips / dPower : 1e300;
            if (cost < bestCost) {
                bestCost = cost;
                bestCore = i;
            }
        }
        if (bestCore == n)
            break; // everything at the floor; budget unreachable
        --levels_[bestCore];
    }

    if (!config_.greedyRefill)
        return levels_;

    for (;;) {
        double bestGain = -1.0;
        std::size_t bestCore = n;
        const double currentPower = snap.powerAt(levels_);
        for (std::size_t i = 0; i < n; ++i) {
            const int next = levels_[i] + 1;
            if (next >= static_cast<int>(numLevels))
                continue;
            const double dPower =
                corePower(i, next) - corePower(i, levels_[i]);
            if (currentPower + dPower > snap.ptargetW ||
                corePower(i, next) > snap.pcoreMaxW) {
                continue;
            }
            const double dMips =
                coreMips(i, next) - coreMips(i, levels_[i]);
            const double gain = dPower > 1e-12 ? dMips / dPower : dMips;
            if (gain > bestGain) {
                bestGain = gain;
                bestCore = i;
            }
        }
        if (bestCore == n)
            break;
        ++levels_[bestCore];
    }
    return levels_;
}

} // namespace varsched
