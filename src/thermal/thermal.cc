#include "thermal/thermal.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace varsched
{

namespace
{

/**
 * Length of the shared boundary between two axis-aligned rectangles,
 * in normalised units; zero when they do not abut.
 */
double
sharedEdge(const Rect &a, const Rect &b)
{
    constexpr double kTouch = 1e-9;
    // Vertical shared edge (a's right against b's left or vice versa).
    if (std::abs((a.x + a.w) - b.x) < kTouch ||
        std::abs((b.x + b.w) - a.x) < kTouch) {
        const double lo = std::max(a.y, b.y);
        const double hi = std::min(a.y + a.h, b.y + b.h);
        return std::max(0.0, hi - lo);
    }
    // Horizontal shared edge.
    if (std::abs((a.y + a.h) - b.y) < kTouch ||
        std::abs((b.y + b.h) - a.y) < kTouch) {
        const double lo = std::max(a.x, b.x);
        const double hi = std::min(a.x + a.w, b.x + b.w);
        return std::max(0.0, hi - lo);
    }
    return 0.0;
}

} // namespace

ThermalModel::ThermalModel(const Floorplan &plan,
                           const ThermalParams &params)
    : numCores_(plan.numCores()), numL2_(plan.l2Blocks().size()),
      params_(params)
{
    // Node order: cores, L2 blocks, spreader, sink.
    const std::size_t numBlocks = numCores_ + numL2_;
    const std::size_t n = numBlocks + 2;
    const std::size_t spreader = numBlocks;
    const std::size_t sink = numBlocks + 1;

    std::vector<Rect> rects;
    rects.reserve(numBlocks);
    for (std::size_t c = 0; c < numCores_; ++c)
        rects.push_back(plan.coreRect(c));
    for (std::size_t l : plan.l2Blocks())
        rects.push_back(plan.blocks()[l].rect);

    conductance_ = Matrix(n, n);
    const double edgeM = plan.dieEdgeMm() * 1e-3;

    auto addConductance = [this](std::size_t i, std::size_t j, double g) {
        conductance_(i, i) += g;
        conductance_(j, j) += g;
        conductance_(i, j) -= g;
        conductance_(j, i) -= g;
    };

    // Lateral silicon conductances between abutting blocks.
    for (std::size_t i = 0; i < numBlocks; ++i) {
        for (std::size_t j = i + 1; j < numBlocks; ++j) {
            const double edge = sharedEdge(rects[i], rects[j]);
            if (edge <= 0.0)
                continue;
            const double dx = rects[i].cx() - rects[j].cx();
            const double dy = rects[i].cy() - rects[j].cy();
            const double dist = std::hypot(dx, dy) * edgeM;
            const double g = params_.siliconConductivity *
                params_.siliconThicknessM * (edge * edgeM) / dist;
            addConductance(i, j, g);
        }
    }

    // Vertical conductance of each block into the spreader.
    for (std::size_t i = 0; i < numBlocks; ++i) {
        const double areaM2 = rects[i].area() * edgeM * edgeM;
        addConductance(i, spreader, areaM2 / params_.verticalResistivity);
    }

    // Spreader -> sink -> ambient.
    addConductance(spreader, sink, 1.0 / params_.spreaderToSinkR);
    conductance_(sink, sink) += 1.0 / params_.sinkToAmbientR;

    // Thermal masses: silicon volume per block, lumped package parts.
    capacity_.assign(n, 0.0);
    for (std::size_t i = 0; i < numBlocks; ++i) {
        const double volM3 =
            rects[i].area() * edgeM * edgeM * params_.dieThicknessM;
        capacity_[i] = params_.siliconHeatCapacity * volM3;
    }
    capacity_[spreader] = params_.spreaderCapacity;
    capacity_[sink] = params_.sinkCapacity;

    // The conductance matrix is fixed for the life of the model, so
    // factor it once here; solve() then costs two triangular solves
    // per tick instead of a full CG iteration to 1e-12.
    const bool ok = cholesky(conductance_, factor_);
    assert(ok);
    (void)ok;

    // Sparsity structure for the transient stepper.
    neighbors_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (j != i && conductance_(i, j) != 0.0)
                neighbors_[i].emplace_back(j, conductance_(i, j));
        }
    }
}

Matrix
ThermalModel::blockResponse() const
{
    Matrix response(conductance_.rows(), numCores_ + numL2_);
    std::vector<double> unit(conductance_.rows(), 0.0);
    for (std::size_t j = 0; j < response.cols(); ++j) {
        unit[j] = 1.0;
        const std::vector<double> column = choleskySolve(factor_, unit);
        unit[j] = 0.0;
        for (std::size_t i = 0; i < column.size(); ++i)
            response(i, j) = column[i];
    }
    return response;
}

std::vector<double>
ThermalModel::zeroPowerTemps() const
{
    std::vector<double> rhs(conductance_.rows(), 0.0);
    rhs.back() = params_.ambientC / params_.sinkToAmbientR;
    return choleskySolve(factor_, rhs);
}

ThermalResult
ThermalModel::solve(const std::vector<double> &corePowerW,
                    const std::vector<double> &l2PowerW) const
{
    assert(corePowerW.size() == numCores_);
    assert(l2PowerW.size() == numL2_);

    const std::size_t numBlocks = numCores_ + numL2_;
    const std::size_t n = numBlocks + 2;

    // Right-hand side: block powers, plus the ambient injection at
    // the sink node (temperatures solved relative to absolute C).
    std::vector<double> rhs(n, 0.0);
    for (std::size_t c = 0; c < numCores_; ++c)
        rhs[c] = corePowerW[c];
    for (std::size_t l = 0; l < numL2_; ++l)
        rhs[numCores_ + l] = l2PowerW[l];
    rhs[n - 1] = params_.ambientC / params_.sinkToAmbientR;

    const std::vector<double> temps = choleskySolve(factor_, rhs);

    ThermalResult result;
    result.coreTempC.assign(temps.begin(),
                            temps.begin() + static_cast<long>(numCores_));
    result.l2TempC.assign(
        temps.begin() + static_cast<long>(numCores_),
        temps.begin() + static_cast<long>(numBlocks));
    result.spreaderC = temps[numBlocks];
    result.sinkC = temps[numBlocks + 1];
    return result;
}

void
ThermalModel::transientStep(ThermalResult &state,
                            const std::vector<double> &corePowerW,
                            const std::vector<double> &l2PowerW,
                            double dtMs) const
{
    assert(corePowerW.size() == numCores_);
    assert(l2PowerW.size() == numL2_);
    const std::size_t numBlocks = numCores_ + numL2_;
    const std::size_t n = numBlocks + 2;

    // Flatten the state vector.
    std::vector<double> temps(n, params_.ambientC);
    for (std::size_t c = 0; c < numCores_; ++c)
        temps[c] = state.coreTempC[c];
    for (std::size_t l = 0; l < numL2_; ++l)
        temps[numCores_ + l] = state.l2TempC[l];
    temps[numBlocks] = state.spreaderC;
    temps[numBlocks + 1] = state.sinkC;

    std::vector<double> power(n, 0.0);
    for (std::size_t c = 0; c < numCores_; ++c)
        power[c] = corePowerW[c];
    for (std::size_t l = 0; l < numL2_; ++l)
        power[numCores_ + l] = l2PowerW[l];
    power[n - 1] = params_.ambientC / params_.sinkToAmbientR;

    // Forward Euler, sub-stepped to half the smallest block time
    // constant for stability.
    double tauMin = 1e300;
    for (std::size_t i = 0; i < n; ++i)
        tauMin = std::min(tauMin, capacity_[i] / conductance_(i, i));
    const double maxStepS = 0.5 * tauMin;
    const double totalS = dtMs * 1e-3;
    const auto steps = static_cast<std::size_t>(
        std::ceil(totalS / maxStepS));
    const double h = totalS / static_cast<double>(steps);

    std::vector<double> next(n);
    for (std::size_t s = 0; s < steps; ++s) {
        for (std::size_t i = 0; i < n; ++i) {
            double flow = power[i] - conductance_(i, i) * temps[i];
            for (const auto &[j, g] : neighbors_[i])
                flow -= g * temps[j];
            next[i] = temps[i] + h * flow / capacity_[i];
        }
        temps.swap(next);
    }

    for (std::size_t c = 0; c < numCores_; ++c)
        state.coreTempC[c] = temps[c];
    for (std::size_t l = 0; l < numL2_; ++l)
        state.l2TempC[l] = temps[numCores_ + l];
    state.spreaderC = temps[numBlocks];
    state.sinkC = temps[numBlocks + 1];
}

} // namespace varsched
