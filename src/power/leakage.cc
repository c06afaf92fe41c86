#include "power/leakage.hh"

#include "runtime/simd.hh"

#include <cassert>
#include <cmath>
#include <numbers>

namespace varsched
{

namespace
{

/** Thermal voltage kT/q in volts at the given Celsius temperature. */
double
thermalVoltage(double tempC)
{
    return 8.617333e-5 * (tempC + 273.15);
}

constexpr std::size_t kCoeffs = CoreLeakageTable::kDegree + 1;
constexpr std::size_t kNodes = kCoeffs / 2;

using Coefficients = std::array<double, kCoeffs>;

/**
 * What every table fit shares: the Chebyshev nodes
 * t_k = cos(pi (k + 1/2) / kNodes), the inverse of the Hermite system
 * (rows T_j(t_k), then T_j'(t_k)) that maps values and t-slopes at
 * the nodes to Chebyshev coefficients, stored transposed, and each
 * T_j expanded into powers of t.
 */
struct HermiteBasis
{
    std::array<double, kNodes> node;
    std::array<Coefficients, kCoeffs> inverse; ///< [datum][coefficient]
    std::array<Coefficients, kCoeffs> power; ///< T_j = sum_i [j][i] t^i
};

const HermiteBasis &
hermite()
{
    static const HermiteBasis basis = [] {
        HermiteBasis b{};
        // [T_j(t_k); T_j'(t_k) | I], reduced to [I | inverse] by
        // Gauss-Jordan elimination with partial pivoting.
        std::array<std::array<long double, 2 * kCoeffs>, kCoeffs> m{};
        for (std::size_t k = 0; k < kNodes; ++k) {
            b.node[k] = std::cos(std::numbers::pi *
                                 (static_cast<double>(k) + 0.5) / kNodes);
            const long double t = b.node[k];
            m[k][0] = 1.0L;
            m[k][1] = t;
            m[kNodes + k][1] = 1.0L;
            for (std::size_t j = 2; j < kCoeffs; ++j) {
                m[k][j] = 2.0L * t * m[k][j - 1] - m[k][j - 2];
                m[kNodes + k][j] = 2.0L * m[k][j - 1] +
                    2.0L * t * m[kNodes + k][j - 1] - m[kNodes + k][j - 2];
            }
        }
        for (std::size_t r = 0; r < kCoeffs; ++r)
            m[r][kCoeffs + r] = 1.0L;
        for (std::size_t c = 0; c < kCoeffs; ++c) {
            std::size_t pivot = c;
            for (std::size_t r = c + 1; r < kCoeffs; ++r)
                if (std::abs(m[r][c]) > std::abs(m[pivot][c]))
                    pivot = r;
            std::swap(m[c], m[pivot]);
            const long double d = m[c][c];
            for (long double &v : m[c])
                v /= d;
            for (std::size_t r = 0; r < kCoeffs; ++r) {
                const long double f = m[r][c];
                for (std::size_t i = 0; r != c && i < 2 * kCoeffs; ++i)
                    m[r][i] -= f * m[c][i];
            }
        }
        for (std::size_t j = 0; j < kCoeffs; ++j) {
            for (std::size_t r = 0; r < kCoeffs; ++r)
                b.inverse[r][j] = static_cast<double>(m[j][kCoeffs + r]);
            for (std::size_t i = 0; i <= j; ++i)
                b.power[j][i] = j < 2 ? static_cast<double>(i == j)
                                      : (i > 0 ? 2.0 * b.power[j - 1][i - 1]
                                               : 0.0) -
                        b.power[j - 2][i];
        }
        return b;
    }();
    return basis;
}

/**
 * Power-form coefficients, in t on [-1, 1], of the Hermite
 * interpolant through @p data (values at the nodes, then t-slopes):
 * its Chebyshev coefficients, then each T_j(t) expanded into powers.
 */
Coefficients
interpolate(const Coefficients &data)
{
    const HermiteBasis &basis = hermite();
    Coefficients cheb{}, power{};
    for (std::size_t r = 0; r < kCoeffs; ++r)
        for (std::size_t j = 0; j < kCoeffs; ++j)
            cheb[j] += basis.inverse[r][j] * data[r];
    for (std::size_t j = 0; j < kCoeffs; ++j)
        for (std::size_t i = 0; i <= j; ++i)
            power[i] += cheb[j] * basis.power[j][i];
    return power;
}

/** sum_i a_i t^i by Estrin's scheme: a dependency depth of 4 mul-adds. */
double
estrin(const Coefficients &a, double t, double t2, double t4, double t8)
{
    static_assert(kCoeffs == 14, "Estrin's scheme is written for degree 13");
    const double q0 = (a[0] + a[1] * t) + (a[2] + a[3] * t) * t2;
    const double q1 = (a[4] + a[5] * t) + (a[6] + a[7] * t) * t2;
    const double q2 = (a[8] + a[9] * t) + (a[10] + a[11] * t) * t2;
    return (q0 + q1 * t4) + (q2 + (a[12] + a[13] * t) * t4) * t8;
}

} // namespace

LeakageModel::LeakageModel(const LeakageParams &params) : params_(params)
{
    // Normalise the T^2 * exp(...) kernel so a variation-free core at
    // the calibration corner emits exactly the anchor wattage.
    const double tRefK = params_.refTempC + 273.15;
    const double arg = (-params_.nominalVth +
                        params_.dibl * params_.nominalVdd) /
        (params_.slopeFactor * thermalVoltage(params_.refTempC));
    const double kernel =
        params_.nominalVdd * tRefK * tRefK * std::exp(arg);
    norm_ = params_.nominalCoreSubthresholdW / kernel;

    const double betaLo =
        1.0 / (params_.slopeFactor * thermalVoltage(CoreLeakageTable::kMaxC));
    const double betaHi =
        1.0 / (params_.slopeFactor * thermalVoltage(CoreLeakageTable::kMinC));
    betaMid_ = (betaHi + betaLo) / 2.0;
    betaHalf_ = (betaHi - betaLo) / 2.0;
}

std::vector<double>
LeakageModel::sampleCoreVth(const VariationMap &map, const Floorplan &plan,
                            std::size_t coreId) const
{
    const Rect &tile = plan.coreRect(coreId);
    const std::size_t n = params_.samplesPerEdge;
    assert(n >= 1);

    std::vector<double> samples;
    samples.reserve(n * n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const double x = tile.x +
                (static_cast<double>(i) + 0.5) / static_cast<double>(n) *
                    tile.w;
            const double y = tile.y +
                (static_cast<double>(j) + 0.5) / static_cast<double>(n) *
                    tile.h;
            samples.push_back(map.vthAt(x, y));
        }
    }
    return samples;
}

double
LeakageModel::corePower(const VariationMap &map, const Floorplan &plan,
                        std::size_t coreId, double v, double tempC,
                        double vthShift) const
{
    return corePowerSampled(sampleCoreVth(map, plan, coreId),
                            map.vthSigmaRandom(), v, tempC, vthShift);
}

CoreLeakageKernel
LeakageModel::coreKernel(const std::vector<double> &vthSamples,
                         double sigmaRandom, double tempC,
                         double vthShift) const
{
    const std::size_t n = vthSamples.size();
    const double nvt = params_.slopeFactor * thermalVoltage(tempC);
    const double dVth =
        params_.vthTempCoeff * (tempC - params_.refTempC);

    // One contiguous sweep of x_i = -(vth_i + shift - dVth(T))/(n vT).
    // Its exps give A_c = sum exp(x_i) and, since n vT is proportional
    // to T, dx_i/dT = c/(n vT) - x_i/T gives
    // dA_c/dT = c·A_c/(n vT) - sum x_i exp(x_i) / T.
    static thread_local std::vector<double> args;
    static thread_local std::vector<double> expValues;
    args.resize(n);
    expValues.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        args[i] = -((vthSamples[i] + vthShift) - dVth) / nvt;
    simd::expSweep(args.data(), expValues.data(), n);
    double sum = 0.0;
    double moment = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += expValues[i];
        moment += args[i] * expValues[i];
    }

    // Analytic fold of the per-transistor random component:
    // E[exp(dV/(n vT))] = exp(sigma^2 / (2 (n vT)^2)).
    const double sigma2 = sigmaRandom * sigmaRandom / (nvt * nvt);
    const double tK = tempC + 273.15;
    const double pref = std::exp(sigma2 / 2.0) * norm_ * tK * tK /
        static_cast<double>(n);
    CoreLeakageKernel kernel;
    kernel.scale = pref * sum;
    // d ln(randomBoost · T²)/dT = (2 - sigma²/(n vT)²) / T.
    kernel.dScale = kernel.scale * (2.0 - sigma2) / tK +
        pref * (params_.vthTempCoeff * sum / nvt - moment / tK);
    kernel.invNvt = 1.0 / nvt;
    kernel.tempK = tK;
    return kernel;
}

CoreLeakageTable
LeakageModel::fitKernel(const std::vector<double> &vthSamples,
                        double sigmaRandom, double vthShift) const
{
    // The exponents are x_i(beta) = c/(n k) - w_i·beta with
    // w_i = vth_i + shift + c·(273.15 + refTempC), since
    // dVth·beta = c/(n k) - c·(273.15 + refTempC)·beta. Nodes k and
    // N-1-k sit at mid ± d_k, so one sweep of G_i = exp(x_i(mid)) and
    // R_ik = exp(-w_i d_k) gives exp(x_i) = G_i·R_ik and G_i/R_ik
    // there. With E and Var over the weights exp(x_i) and
    // beta·dx_i/dbeta = x_i - c/(n k):
    //   g = beta·h' = sigma²beta² + E[x] - c/(n k),
    //   beta·g'     = 2 sigma²beta² + E[x] - c/(n k) + Var[x].
    constexpr std::size_t kPairs = kNodes / 2;
    constexpr std::size_t kStride = kPairs + 1;
    const std::size_t n = vthSamples.size();
    static thread_local std::vector<double> args;
    static thread_local std::vector<double> expValues;
    args.resize(n * kStride);
    expValues.resize(n * kStride);
    const double nk = params_.slopeFactor * 8.617333e-5;
    const double c0 = params_.vthTempCoeff / nk;
    const double wShift =
        vthShift + params_.vthTempCoeff * (273.15 + params_.refTempC);
    const HermiteBasis &basis = hermite();
    for (std::size_t i = 0; i < n; ++i) {
        const double w = vthSamples[i] + wShift;
        args[i * kStride] = c0 - w * betaMid_;
        for (std::size_t k = 0; k < kPairs; ++k)
            args[i * kStride + 1 + k] = -w * betaHalf_ * basis.node[k];
    }
    simd::expSweep(args.data(), expValues.data(), n * kStride);
    // Per node: sums of exp(x_i), x_i exp(x_i) and x_i² exp(x_i).
    std::array<std::array<double, 3>, kNodes> sums{};
    const auto add = [&sums](std::size_t k, double x, double e) {
        sums[k][0] += e;
        sums[k][1] += x * e;
        sums[k][2] += x * x * e;
    };
    for (std::size_t i = 0; i < n; ++i) {
        const double *x = &args[i * kStride];
        const double *e = &expValues[i * kStride];
        add(kPairs, x[0], e[0]);
        for (std::size_t k = 0; k < kPairs; ++k) {
            add(k, x[0] + x[1 + k], e[0] * e[1 + k]);
            add(kNodes - 1 - k, x[0] - x[1 + k], e[0] / e[1 + k]);
        }
    }
    // Values, then t-slopes (dt/dbeta = 1/half), of h and of g.
    Coefficients h, g;
    const double sigma2 = sigmaRandom * sigmaRandom;
    for (std::size_t k = 0; k < kNodes; ++k) {
        const double beta = betaMid_ + betaHalf_ * basis.node[k];
        const double random = sigma2 * beta * beta;
        const double mean = sums[k][1] / sums[k][0];
        const double var = sums[k][2] / sums[k][0] - mean * mean;
        h[k] = random / 2.0 + std::log(sums[k][0] / static_cast<double>(n));
        g[k] = random + mean - c0;
        h[kNodes + k] = betaHalf_ * g[k] / beta;
        g[kNodes + k] = betaHalf_ * (2.0 * random + mean - c0 + var) / beta;
    }
    return CoreLeakageTable{interpolate(h), interpolate(g)};
}

CoreLeakageKernel
LeakageModel::tableKernel(const CoreLeakageTable &table, double tempC) const
{
    const double tK = tempC + 273.15;
    const double beta = 1.0 / (params_.slopeFactor * thermalVoltage(tempC));
    const double t = (beta - betaMid_) / betaHalf_;
    const double t2 = t * t;
    const double t4 = t2 * t2;
    const double t8 = t4 * t4;
    CoreLeakageKernel kernel;
    kernel.scale =
        norm_ * tK * tK * std::exp(estrin(table.h, t, t2, t4, t8));
    // d ln(scale)/dT = (2 - beta·h'(beta)) / T, as dbeta/dT = -beta/T.
    kernel.dScale =
        kernel.scale * (2.0 - estrin(table.betaDh, t, t2, t4, t8)) / tK;
    kernel.invNvt = beta;
    kernel.tempK = tK;
    return kernel;
}

double
LeakageModel::corePowerAt(const CoreLeakageKernel &kernel, double v,
                          double *dPdT) const
{
    const double diblArg = params_.dibl * v * kernel.invNvt;
    const double perScale = v * std::exp(diblArg);
    // d(1/(n vT))/dT = -1/(n vT · T).
    if (dPdT != nullptr)
        *dPdT = perScale *
            (kernel.dScale - kernel.scale * diblArg / kernel.tempK);
    // Gate (tunnelling) leakage falls very steeply with voltage;
    // model it as V^4 (between the V^4-V^5 dependence of thin-oxide
    // tunnelling models).
    const double vr = v / params_.nominalVdd;
    const double gate = params_.nominalCoreGateW * vr * vr * vr * vr;

    return kernel.scale * perScale + gate;
}

double
LeakageModel::l2BlockPower(const VariationMap &map, const Floorplan &plan,
                           std::size_t l2Index, double v, double tempC,
                           double *dPdT) const
{
    const std::size_t blockIdx = plan.l2Blocks().at(l2Index);
    const Rect &r = plan.blocks()[blockIdx].rect;

    // Scale the L2 anchor wattage by the subthreshold kernel
    // norm·V·T²·exp(x), x = (-vth(T) + eta·V)/(n vT), at the block
    // centre's Vth over its value at the calibration corner (the core
    // anchor wattage); L2 arrays use high-Vth cells, which the
    // (smaller) anchor wattage reflects.
    const double nvt = params_.slopeFactor * thermalVoltage(tempC);
    const double x = (-(map.vthAt(r.cx(), r.cy()) -
                        params_.vthTempCoeff * (tempC - params_.refTempC)) +
                      params_.dibl * v) / nvt;
    const double tK = tempC + 273.15;
    const double power = params_.nominalL2BlockW /
        params_.nominalCoreSubthresholdW * norm_ * v * tK * tK * std::exp(x);
    // d ln(T² exp(x))/dT = (2 - x + c·T/(n vT)) / T, since n vT ∝ T.
    if (dPdT != nullptr)
        *dPdT = power * (2.0 - x + params_.vthTempCoeff * tK / nvt) / tK;
    return power;
}

} // namespace varsched
