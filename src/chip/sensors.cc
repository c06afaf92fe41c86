#include "chip/sensors.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "runtime/metrics.hh"
#include "runtime/simd.hh"

namespace varsched
{

ChipEvaluator::ChipEvaluator(const Die &die)
    : die_(&die), response_(die.thermalModel().blockResponse()),
      t0_(die.thermalModel().zeroPowerTemps()), phi_(t0_.size()),
      step_(response_.cols()),
      jacobian_(response_.cols(), response_.cols()),
      rowWork_(die.numCores()),
      rowIpc_(die.numCores() * die.numLevels()),
      rowDynW_(die.numCores() * die.numLevels())
{
}

double
ChipEvaluator::ipcOf(const AppProfile &app, const CoreWork &work,
                     double freqHz)
{
    const double cpi = app.cpiExe * work.cpiScale +
        app.memMpi * work.missScale * 100.0e-9 * freqHz;
    return cpi > 0.0 ? 1.0 / cpi : 0.0;
}

double
ChipEvaluator::nominalDynamicPower(const AppProfile &app) const
{
    for (std::size_t i = 0; i < actKeys_.size(); ++i) {
        if (actKeys_[i].first == &app &&
            actKeys_[i].second == app.dynPowerW)
            return actVals_[i];
    }
    const DynamicPowerModel &model = die_->dynamicModel();
    actKeys_.emplace_back(&app, app.dynPowerW);
    actVals_.push_back(model.corePower(
        model.calibrateActivity(app.activityShape, app.dynPowerW),
        model.params().nominalVdd, model.params().nominalFreqHz));
    return actVals_.back();
}

ChipEvaluator::SensorRows
ChipEvaluator::sensorRows(std::size_t c, const CoreWork &work) const
{
    assert(work.app != nullptr && c < rowWork_.size());
    const std::size_t numLevels = die_->numLevels();
    double *ipc = rowIpc_.data() + c * numLevels;
    double *dynW = rowDynW_.data() + c * numLevels;
    if (!(rowWork_[c] == work)) {
        // dynamicPower() with the nominal-power lookup out of the loop.
        const double nominalDynW = nominalDynamicPower(*work.app);
        for (std::size_t l = 0; l < numLevels; ++l) {
            const double f = die_->freqAt(c, l);
            ipc[l] = ipcOf(*work.app, work, f);
            dynW[l] = die_->dynamicModel().scaleToPoint(
                          nominalDynW, die_->voltage(l), f) *
                work.activityScale;
        }
        rowWork_[c] = work;
    }
    return {ipc, dynW};
}

double
ChipEvaluator::operatingPoint(ChipCondition &out,
                              const std::vector<CoreWork> &work,
                              const std::vector<int> &levels,
                              double freqCapHz) const
{
    const std::size_t n = die_->numCores();
    assert(work.size() == n && levels.size() == n);
    out.coreFreqHz.assign(n, 0.0);
    out.coreIpc.assign(n, 0.0);
    out.coreMips.assign(n, 0.0);
    dynW_.assign(n, 0.0);
    double l2AccessesPerSec = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
        if (work[c].app == nullptr)
            continue;
        const auto level = static_cast<std::size_t>(levels[c]);
        double f = die_->freqAt(c, level);
        if (freqCapHz > 0.0)
            f = std::min(f, freqCapHz);
        out.coreFreqHz[c] = f;
        out.coreIpc[c] = ipcOf(*work[c].app, work[c], f);
        out.coreMips[c] = out.coreIpc[c] * f / 1.0e6;
        dynW_[c] = dynamicPower(work[c], die_->voltage(level), f);
        l2AccessesPerSec += work[c].app->l2Mpi * work[c].missScale *
            out.coreIpc[c] * f;
    }
    return die_->dynamicModel().l2Power(l2AccessesPerSec);
}

void
ChipEvaluator::blockPowers(const std::vector<CoreWork> &work,
                           const std::vector<int> &levels,
                           double l2DynW) const
{
    const std::size_t n = die_->numCores();
    power_.assign(temps_.size(), 0.0); // idle cores are power-gated
    slope_.assign(temps_.size(), 0.0);
    for (std::size_t c = 0; c < n; ++c) {
        if (work[c].app == nullptr)
            continue;
        power_[c] = dynW_[c] +
            die_->leakageModel().corePowerAt(
                die_->leakageKernel(c, temps_[c]),
                die_->voltage(static_cast<std::size_t>(levels[c])),
                &slope_[c]);
    }
    for (std::size_t b = n; b < temps_.size(); ++b) {
        power_[b] = l2DynW / static_cast<double>(temps_.size() - n) +
            die_->l2LeakagePower(b - n, 1.0, temps_[b], &slope_[b]);
    }
}

namespace
{

/**
 * Solve J·x = b in place (@p b becomes x) by Gaussian elimination
 * without pivoting. J is a Z-matrix (off-diagonals <= 0), which is a
 * nonsingular M-matrix exactly when every pivot is positive; on a
 * pivot that is not, this returns false instead of a solution. Each
 * pivot is replaced by its reciprocal, which both passes multiply by;
 * the row sweeps are the simd.hh kernels.
 */
bool
solveMMatrix(Matrix &j, std::vector<double> &b)
{
    const std::size_t n = b.size();
    for (std::size_t k = 0; k < n; ++k) {
        double *pivot = j.row(k);
        if (!(pivot[k] > 1e-9))
            return false;
        pivot[k] = 1.0 / pivot[k];
        for (std::size_t i = k + 1; i < n; ++i) {
            double *row = j.row(i);
            const double factor = row[k] * pivot[k];
            if (factor == 0.0)
                continue;
            simd::axpyNeg(row + k + 1, factor, pivot + k + 1, n - k - 1);
            b[i] -= factor * b[k];
        }
    }
    for (std::size_t k = n; k-- > 0;) {
        const double *row = j.row(k);
        b[k] = (b[k] - simd::dot(row + k + 1, b.data() + k + 1, n - k - 1)) *
            row[k];
    }
    return true;
}

} // namespace

void
ChipEvaluator::evaluateInto(ChipCondition &out,
                            const std::vector<CoreWork> &work,
                            const std::vector<int> &levels,
                            double freqCapHz,
                            const ChipCondition *warmStart) const
{
    const std::size_t n = die_->numCores();
    const std::size_t blocks = response_.cols(); // cores, then L2s

    // Seed the block temperatures before touching `out` — warmStart
    // may alias it — from the previous settled temperatures (warm) or
    // the leakage reference (cold).
    if (warmStart != nullptr && warmStart->coreTempC.size() == n &&
        warmStart->l2TempC.size() == blocks - n) {
        temps_ = warmStart->coreTempC;
        temps_.insert(temps_.end(), warmStart->l2TempC.begin(),
                      warmStart->l2TempC.end());
    } else {
        temps_.assign(blocks, die_->params().leakage.refTempC);
    }
    const double l2DynW = operatingPoint(out, work, levels, freqCapHz);

    // Leakage-temperature fixed point (Su et al.) T = min(Φ(T), 150),
    // Φ(T) = t0 + R·P(T), the clamp standing in for every real chip's
    // thermal throttle. A round evaluates P and dP/dT at T and stops
    // within 0.01 C, so the reported powers are those of the reported
    // temperatures.
    constexpr double kMaxJunctionC = 150.0;
    int rounds = 0;
    for (;;) {
        ++rounds;
        blockPowers(work, levels, l2DynW);
        double residual = 0.0;
        for (std::size_t i = 0; i < phi_.size(); ++i) {
            phi_[i] =
                t0_[i] + simd::dot(response_.row(i), power_.data(), blocks);
            if (i < blocks)
                residual = std::max(residual, std::abs(std::min(
                    phi_[i], kMaxJunctionC) - temps_[i]));
        }
        if (residual <= 0.01 || rounds == 25)
            break;

        // Newton on T - min(Φ(T), 150): Jacobian I - R·diag(dP/dT), a
        // clamped node's row reduced to T_i = 150, the step projected
        // onto [t0, 150]. Past a loop gain of 1 (thermal runaway) the
        // Jacobian is no M-matrix and Newton would seek the unstable
        // root, so a plain fixed-point step heads for the clamp.
        for (std::size_t i = 0; i < blocks; ++i) {
            const double *r = response_.row(i);
            double *jac = jacobian_.row(i);
            const bool clamped = phi_[i] > kMaxJunctionC;
            for (std::size_t j = 0; j < blocks; ++j)
                jac[j] = clamped ? 0.0 : -r[j] * slope_[j];
            jac[i] += 1.0;
            step_[i] = std::min(phi_[i], kMaxJunctionC) - temps_[i];
        }
        const bool newton = solveMMatrix(jacobian_, step_);
        for (std::size_t i = 0; i < blocks; ++i)
            temps_[i] = newton
                ? std::clamp(temps_[i] + step_[i], t0_[i], kMaxJunctionC)
                : std::min(phi_[i], kMaxJunctionC);
    }
    static metrics::Counter &calls =
        metrics::Registry::global().counter("chip.settle.calls");
    static metrics::Counter &roundCount =
        metrics::Registry::global().counter("chip.settle.rounds");
    calls.add();
    roundCount.add(static_cast<std::uint64_t>(rounds));

    out.coreTempC.assign(temps_.begin(), temps_.begin() + n);
    out.l2TempC.assign(temps_.begin() + n, temps_.end());
    out.spreaderC = phi_[blocks];
    out.sinkC = phi_[blocks + 1];
    reportPowers(out);
}

void
ChipEvaluator::reportPowers(ChipCondition &out) const
{
    const std::size_t n = die_->numCores();
    out.corePowerW.assign(power_.begin(), power_.begin() + n);
    out.l2PowerW = 0.0;
    for (std::size_t b = n; b < power_.size(); ++b)
        out.l2PowerW += power_[b];
    out.totalPowerW = out.l2PowerW;
    out.totalMips = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
        out.totalPowerW += out.corePowerW[c];
        out.totalMips += out.coreMips[c];
    }
}

ChipCondition
ChipEvaluator::evaluateTransient(const std::vector<CoreWork> &work,
                                 const std::vector<int> &levels,
                                 const ChipCondition &previous,
                                 double dtMs, double freqCapHz) const
{
    const std::size_t n = die_->numCores();
    assert(previous.coreTempC.size() == n);

    ChipCondition cond;
    const double l2DynW = operatingPoint(cond, work, levels, freqCapHz);

    // Powers at the *previous* temperatures (leakage lags thermally),
    // then one RC step from the previous thermal state.
    const double ambientC = die_->params().thermal.ambientC;
    temps_ = previous.coreTempC;
    if (previous.l2TempC.size() == 2)
        temps_.insert(temps_.end(), previous.l2TempC.begin(),
                            previous.l2TempC.end());
    else
        temps_.resize(n + 2, ambientC);
    blockPowers(work, levels, l2DynW);
    reportPowers(cond);

    ThermalResult state;
    state.coreTempC = previous.coreTempC;
    state.l2TempC.assign(temps_.begin() + n, temps_.end());
    state.spreaderC =
        previous.spreaderC > 0.0 ? previous.spreaderC : ambientC;
    state.sinkC = previous.sinkC > 0.0 ? previous.sinkC : ambientC;
    l2Power_.assign(power_.begin() + n, power_.end());
    die_->thermalModel().transientStep(state, cond.corePowerW,
                                       l2Power_, dtMs);
    cond.coreTempC = std::move(state.coreTempC);
    cond.l2TempC = std::move(state.l2TempC);
    cond.spreaderC = state.spreaderC;
    cond.sinkC = state.sinkC;
    return cond;
}

double
ChipSnapshot::powerAt(const std::vector<int> &levels) const
{
    assert(levels.size() == cores.size());
    double p = uncorePowerW;
    for (std::size_t i = 0; i < cores.size(); ++i)
        p += powerW[cell(i, levels[i])];
    return p;
}

double
ChipSnapshot::mipsAt(const std::vector<int> &levels) const
{
    assert(levels.size() == cores.size());
    double m = 0.0;
    for (std::size_t i = 0; i < cores.size(); ++i) {
        const std::size_t k = cell(i, levels[i]);
        m += ipc[k] * freqHz[k] / 1.0e6;
    }
    return m;
}

double
ChipSnapshot::weightedAt(const std::vector<int> &levels) const
{
    assert(levels.size() == cores.size());
    double w = 0.0;
    for (std::size_t i = 0; i < cores.size(); ++i) {
        const std::size_t k = cell(i, levels[i]);
        w += ipc[k] * freqHz[k] / 1.0e6 / cores[i].refMips;
    }
    return w;
}

bool
ChipSnapshot::feasible(const std::vector<int> &levels) const
{
    assert(levels.size() == cores.size());
    double p = uncorePowerW;
    for (std::size_t i = 0; i < cores.size(); ++i) {
        const double cp = powerW[cell(i, levels[i])];
        if (cp > pcoreMaxW + 1e-9)
            return false;
        p += cp;
    }
    return p <= ptargetW + 1e-9;
}

void
buildSnapshotInto(ChipSnapshot &snap, const ChipEvaluator &evaluator,
                  const std::vector<CoreWork> &work,
                  const ChipCondition &current, double ptargetW,
                  double pcoreMaxW, Rng *noise, SensorTamper *tamper)
{
    const Die &die = evaluator.die();
    const std::size_t numLevels = die.numLevels();
    assert(work.size() == die.numCores());
    snap.ptargetW = ptargetW;
    snap.pcoreMaxW = pcoreMaxW;
    snap.uncorePowerW = current.l2PowerW;
    snap.voltage.resize(numLevels);
    for (std::size_t l = 0; l < numLevels; ++l)
        snap.voltage[l] = die.voltage(l);

    snap.cores.clear();
    for (std::size_t c = 0; c < work.size(); ++c) {
        if (work[c].app != nullptr)
            snap.cores.push_back({c, snap.cores.size(),
                                  work[c].app->ipcAt4GHz * 4.0e9 / 1.0e6});
    }
    const std::size_t cells = snap.cores.size() * numLevels;
    snap.freqHz.resize(cells);
    snap.ipc.resize(cells);
    snap.powerW.resize(cells);

    // Sensor noise, one batch: an IPC then a power draw per (core,
    // level), in that order, drawn straight into the two tables and
    // folded into the readings below.
    if (noise)
        simd::normalPairSweep(*noise, snap.ipc.data(), snap.powerW.data(),
                              cells);
    for (std::size_t i = 0; i < snap.cores.size(); ++i) {
        const std::size_t c = snap.cores[i].coreId;
        const ChipEvaluator::SensorRows rows =
            evaluator.sensorRows(c, work[c]);
        // Sensor power: dynamic + leakage at the *current* (frozen)
        // temperature of this core, so one leakage kernel serves
        // every level.
        const CoreLeakageKernel kernel =
            die.leakageKernel(c, current.coreTempC[c]);
        double *freq = snap.freqHz.data() + i * numLevels;
        double *ipc = snap.ipc.data() + i * numLevels;
        double *power = snap.powerW.data() + i * numLevels;
        for (std::size_t l = 0; l < numLevels; ++l) {
            freq[l] = die.freqAt(c, l);
            ipc[l] =
                noise ? rows.ipc[l] * (1.0 + 0.01 * ipc[l]) : rows.ipc[l];
        }
        for (std::size_t l = 0; l < numLevels; ++l) {
            const double p = rows.dynW[l] +
                die.leakageModel().corePowerAt(kernel, snap.voltage[l]);
            power[l] = noise ? p * (1.0 + 0.01 * power[l]) : p;
        }
        if (tamper) {
            for (std::size_t l = 0; l < numLevels; ++l)
                power[l] = tamper->tamperPower(c, l, power[l]);
        }
    }
}

} // namespace varsched
