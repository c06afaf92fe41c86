/**
 * @file
 * Property tests for the explicit SIMD kernels (runtime/simd.hh)
 * against their scalar references — the PR 5 <= 1e-12 agreement
 * contract — over odd/tail lengths, subnormal and extreme-argument
 * inputs, on both the dispatched path and the forced-scalar fallback.
 * The whole suite also runs a second time under VARSCHED_SIMD=scalar
 * (the simd_forced_scalar ctest), where every comparison pins the
 * fallback against itself — i.e. exact.
 */

#include "runtime/simd.hh"

#include "chip/die.hh"
#include "power/leakage.hh"
#include "tests/leakage_oracle.hh"
#include "solver/fft.hh"
#include "solver/rng.hh"
#include "timing/alphapower.hh"
#include "varius/field.hh"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numbers>
#include <vector>

namespace varsched
{
namespace
{

/** RAII forced-scalar toggle (always left off afterwards). */
class ScalarGuard
{
  public:
    explicit ScalarGuard(bool force) { simd::setForceScalar(force); }
    ~ScalarGuard() { simd::setForceScalar(false); }
};

/** |a - b| within the SIMD agreement contract. The relative term is
 *  the documented 1e-12; the absolute floor absorbs values pinned
 *  near zero (sin at multiples of pi, subnormal exp results), where
 *  a relative bound is meaningless. */
::testing::AssertionResult
agreesWithin(double a, double b, double absFloor = 1e-300)
{
    if (a == b || (std::isnan(a) && std::isnan(b)))
        return ::testing::AssertionSuccess(); // covers equal infinities
    const double tol =
        1e-12 * std::max(std::fabs(a), std::fabs(b)) + absFloor;
    if (std::fabs(a - b) <= tol)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << a << " vs " << b << " differs by " << std::fabs(a - b)
        << " (tol " << tol << ")";
}

/** The odd/tail lengths every sweep is exercised over: remainders of
 *  0..3 against the 4-lane vectors, plus the empty and single case. */
const std::vector<std::size_t> kLengths = {0, 1, 2, 3, 4, 5,
                                           7, 8, 63, 64, 67};

std::vector<double>
randomArgs(std::size_t n, double lo, double hi, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> v(n);
    for (auto &x : v)
        x = rng.uniform(lo, hi);
    return v;
}

TEST(SimdDispatch, ForcedScalarToggleControlsEnabled)
{
    // With the override on, the dispatch must report scalar.
    {
        const ScalarGuard guard(true);
        EXPECT_FALSE(simd::enabled());
        EXPECT_STREQ(simd::activeIsa(), "scalar");
    }
    // With it off, enabled() may be true or false depending on the
    // host CPU (and VARSCHED_SIMD env) — but must be self-consistent.
    const bool on = simd::enabled();
    EXPECT_EQ(on, std::string(simd::activeIsa()) != "scalar");
}

TEST(SimdDispatch, VectorPathOnCapableHost)
{
    // The AVX2/FMA bodies are selected at run time, so a default build
    // must use them on any CPU that has both features.
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("fma"))
        GTEST_SKIP() << "CPU lacks AVX2 or FMA";
    const char *env = std::getenv("VARSCHED_SIMD");
    if (env != nullptr &&
        (std::strcmp(env, "scalar") == 0 || std::strcmp(env, "off") == 0))
        GTEST_SKIP() << "VARSCHED_SIMD forces the scalar fallback";
    EXPECT_TRUE(simd::enabled());
    EXPECT_STREQ(simd::activeIsa(), "avx2");
#else
    GTEST_SKIP() << "run-time AVX2 dispatch is x86-64 only";
#endif
}

TEST(SimdExpSweep, MatchesStdExpOverRandomAndTailLengths)
{
    for (const std::size_t n : kLengths) {
        const std::vector<double> x =
            randomArgs(n, -40.0, 40.0, 0xE00 + n);
        std::vector<double> out(n, -1.0);
        simd::expSweep(x.data(), out.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(agreesWithin(out[i], std::exp(x[i])))
                << "n=" << n << " i=" << i << " x=" << x[i];
    }
}

TEST(SimdExpSweep, ExtremeAndSubnormalArguments)
{
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<double> x = {
        0.0, -0.0, 1.0, -1.0,
        5e-324, -5e-324,                     // subnormal inputs
        1e-308, -1e-308,
        700.0, -700.0,
        709.0, 709.9,                        // overflow boundary
        -745.0, -745.3, -746.0,              // underflow boundary
        -800.0, 1000.0,
        inf, -inf,
        std::numeric_limits<double>::quiet_NaN(),
    };
    std::vector<double> out(x.size());
    simd::expSweep(x.data(), out.data(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double want = std::exp(x[i]);
        if (std::isnan(want)) {
            EXPECT_TRUE(std::isnan(out[i])) << "x=" << x[i];
        } else if (std::isinf(want)) {
            EXPECT_EQ(out[i], want) << "x=" << x[i];
        } else {
            // Subnormal results: the two-step 2^k scaling may round
            // differently in the last subnormal bit, so allow an
            // absolute floor of a few subnormal ulps.
            EXPECT_TRUE(agreesWithin(out[i], want, 1e-318))
                << "x=" << x[i];
        }
    }
}

TEST(SimdPowSweep, MatchesStdPowForOverdriveDomain)
{
    // gateDelayBatch raises soft-clamped overdrives (>= ~0.025) to
    // alpha; cover that domain plus wider magnitudes and subnormals.
    const double alpha = 1.55;
    for (const std::size_t n : kLengths) {
        std::vector<double> x = randomArgs(n, 0.01, 3.0, 0xF00 + n);
        if (n >= 4) {
            x[0] = 0.025;      // the soft-clamp floor
            x[1] = 1.0;
            x[2] = 2.2250738585072014e-308; // DBL_MIN
            x[3] = 4.9e-324;   // subnormal base
        }
        std::vector<double> out(n);
        simd::powSweep(x.data(), alpha, out.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(agreesWithin(out[i], std::pow(x[i], alpha)))
                << "n=" << n << " i=" << i << " x=" << x[i];
    }
}

TEST(SimdSinCosSweep, MatchesLibmIncludingAxisAngles)
{
    const double pi = std::numbers::pi;
    for (const std::size_t n : kLengths) {
        std::vector<double> x =
            randomArgs(n, 0.0, 2.0 * pi, 0xA00 + n);
        if (n >= 8) {
            // Quadrant boundaries, where sin/cos pass through 0/±1
            // and the quadrant fix-up logic changes branch.
            x[0] = 0.0;
            x[1] = 0.5 * pi;
            x[2] = pi;
            x[3] = 1.5 * pi;
            x[4] = 2.0 * pi;
            x[5] = -0.75 * pi; // negative angles
            x[6] = 13.7;       // beyond one turn
            x[7] = 5e-324;     // subnormal angle
        }
        std::vector<double> s(n), c(n);
        simd::sinCosSweep(x.data(), s.data(), c.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(agreesWithin(s[i], std::sin(x[i]), 1e-13))
                << "sin n=" << n << " i=" << i << " x=" << x[i];
            EXPECT_TRUE(agreesWithin(c[i], std::cos(x[i]), 1e-13))
                << "cos n=" << n << " i=" << i << " x=" << x[i];
        }
    }
}

TEST(SimdBoxMuller, MatchesRngNormalPairTransform)
{
    // boxMullerSweep must implement exactly the transform inside
    // Rng::normal(): first value mag*cos, second mag*sin.
    for (const std::size_t n : kLengths) {
        const std::vector<double> u1 =
            randomArgs(n, 1e-300, 1.0, 0xB00 + n);
        const std::vector<double> u2 =
            randomArgs(n, 0.0, 1.0, 0xB10 + n);
        std::vector<double> cosHalf(n), sinHalf(n);
        simd::boxMullerSweep(u1.data(), u2.data(), cosHalf.data(),
                             sinHalf.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            const double mag = std::sqrt(-2.0 * std::log(u1[i]));
            const double ang = 2.0 * std::numbers::pi * u2[i];
            EXPECT_TRUE(agreesWithin(cosHalf[i], mag * std::cos(ang),
                                     1e-12))
                << "i=" << i;
            EXPECT_TRUE(agreesWithin(sinHalf[i], mag * std::sin(ang),
                                     1e-12))
                << "i=" << i;
        }
    }
}

/** Scalar 4-accumulator dot — the pre-SIMD dotBlocked, verbatim. */
double
dotRef(const double *a, const double *b, std::size_t n)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        s0 += a[k] * b[k];
        s1 += a[k + 1] * b[k + 1];
        s2 += a[k + 2] * b[k + 2];
        s3 += a[k + 3] * b[k + 3];
    }
    double s = (s0 + s1) + (s2 + s3);
    for (; k < n; ++k)
        s += a[k] * b[k];
    return s;
}

TEST(SimdDot, MatchesBlockedScalarReference)
{
    for (const std::size_t n : kLengths) {
        std::vector<double> a = randomArgs(n, -2.0, 2.0, 0xD00 + n);
        std::vector<double> b = randomArgs(n, -2.0, 2.0, 0xD10 + n);
        if (n >= 4) {
            a[0] = 1e-310; // subnormal operands
            b[n - 1] = 1e308;
        }
        const double got = simd::dot(a.data(), b.data(), n);
        const double want = dotRef(a.data(), b.data(), n);
        EXPECT_TRUE(agreesWithin(got, want)) << "n=" << n;
    }
}

TEST(SimdDot, ForcedScalarIsBitIdenticalToReference)
{
    const ScalarGuard guard(true);
    for (const std::size_t n : kLengths) {
        const std::vector<double> a =
            randomArgs(n, -2.0, 2.0, 0xD20 + n);
        const std::vector<double> b =
            randomArgs(n, -2.0, 2.0, 0xD30 + n);
        EXPECT_EQ(simd::dot(a.data(), b.data(), n),
                  dotRef(a.data(), b.data(), n))
            << "n=" << n;
    }
}

TEST(SimdAxpy, MatchesScalarUpdate)
{
    for (const std::size_t n : kLengths) {
        const std::vector<double> x =
            randomArgs(n, -3.0, 3.0, 0xC00 + n);
        std::vector<double> y = randomArgs(n, -3.0, 3.0, 0xC10 + n);
        std::vector<double> yRef = y;
        const double a = 1.37;
        simd::axpyNeg(y.data(), a, x.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            yRef[i] -= a * x[i];
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_TRUE(agreesWithin(y[i], yRef[i]))
                << "n=" << n << " i=" << i;
    }
}

TEST(SimdButterfly, FftDispatchAgreesWithForcedScalar)
{
    for (const std::size_t n : {2u, 4u, 8u, 64u, 256u}) {
        Rng rng(0xFF7 + n);
        std::vector<std::complex<double>> data(n);
        for (auto &z : data)
            z = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};

        std::vector<std::complex<double>> scalar = data;
        {
            const ScalarGuard guard(true);
            fft(scalar, false);
        }
        std::vector<std::complex<double>> dispatched = data;
        fft(dispatched, false);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(agreesWithin(dispatched[i].real(),
                                     scalar[i].real(), 1e-12));
            EXPECT_TRUE(agreesWithin(dispatched[i].imag(),
                                     scalar[i].imag(), 1e-12));
        }

        // Inverse round-trip through the dispatched path.
        std::vector<std::complex<double>> back = dispatched;
        fft(back, true);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(agreesWithin(
                back[i].real() / static_cast<double>(n),
                data[i].real(), 1e-12));
        }
    }
}

TEST(SimdButterfly, CornerFftMatchesFullTransformBitwise)
{
    // fft2dCorner must be *bit-identical* to fft2d on the kept corner
    // (same dispatch mode: column transforms are simply skipped, not
    // reordered).
    const std::size_t m = 64, keep = 23;
    Rng rng(0x2D);
    std::vector<std::complex<double>> full(m * m);
    for (auto &z : full)
        z = {rng.normal(), rng.normal()};
    std::vector<std::complex<double>> corner = full;

    fft2d(full, m, m, false);
    fft2dCorner(corner.data(), m, m, false, keep, keep);

    for (std::size_t r = 0; r < keep; ++r) {
        for (std::size_t c = 0; c < keep; ++c) {
            EXPECT_EQ(full[r * m + c], corner[r * m + c])
                << "r=" << r << " c=" << c;
        }
    }
}

TEST(SimdGateDelay, BatchAgreesWithScalarGateDelayIncludingClamp)
{
    const DelayParams params;
    const double v = 0.9, tempC = 72.0;
    for (const std::size_t n : kLengths) {
        std::vector<double> leff =
            randomArgs(n, 0.7, 1.3, 0x6E + n);
        std::vector<double> vth =
            randomArgs(n, 0.18, 0.32, 0x6F + n);
        if (n >= 4) {
            vth[0] = 0.88; // collapses overdrive into the soft clamp
            vth[1] = 0.95; // far past the clamp knee
        }
        std::vector<double> out(n);
        gateDelayBatch(leff.data(), vth.data(), n, v, tempC, params,
                       out.data());
        for (std::size_t i = 0; i < n; ++i) {
            const double want =
                gateDelay(leff[i], vth[i], v, tempC, params);
            EXPECT_TRUE(agreesWithin(out[i], want))
                << "n=" << n << " i=" << i << " vth=" << vth[i];
        }
    }
}

TEST(SimdGateDelay, DispatchAgreesWithForcedScalarBatch)
{
    const DelayParams params;
    const std::size_t n = 67;
    const std::vector<double> leff = randomArgs(n, 0.7, 1.3, 0x70);
    const std::vector<double> vth = randomArgs(n, 0.18, 0.32, 0x71);
    std::vector<double> dispatched(n), scalar(n);
    gateDelayBatch(leff.data(), vth.data(), n, 1.0, 60.0, params,
                   dispatched.data());
    {
        const ScalarGuard guard(true);
        gateDelayBatch(leff.data(), vth.data(), n, 1.0, 60.0, params,
                       scalar.data());
    }
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_TRUE(agreesWithin(dispatched[i], scalar[i]));
}

TEST(SimdLeakage, SampledPowerAgreesWithScalarRefExtremeInputs)
{
    const LeakageModel model{LeakageParams{}};
    // Mix ordinary Vth samples with extreme outliers: deep
    // subthreshold (huge exp argument) and far-above-nominal Vth
    // (tiny, possibly subnormal exp results).
    std::vector<double> vth = randomArgs(65, 0.15, 0.35, 0x5EA);
    vth.push_back(-0.4);
    vth.push_back(1.6);
    vth.push_back(0.25 + 1e-310);
    for (const double shift : {0.0, -0.05, 0.08}) {
        const double got = model.corePowerSampled(vth, 0.02, 0.95,
                                                  80.0, shift);
        const auto want = static_cast<double>(oracle::corePower(
            model.params(), vth, 0.02, 0.95, 80.0L, shift));
        EXPECT_TRUE(agreesWithin(got, want)) << "shift=" << shift;
    }
}

TEST(SimdField, PairGenerationMatchesForcedScalarAndRngState)
{
    // The vectorised Box-Muller fill must leave the RNG where the
    // scalar fill leaves it (same uniform stream, no pending spare),
    // and the synthesised fields must agree within the contract. The
    // grids cover the staging blocks: m² of 256 (under one block),
    // 4096 (four) and 65536 (sixty-four).
    struct Grid
    {
        std::size_t n;
        double phi;
    };
    for (const Grid grid : {Grid{4, 0.4}, Grid{16, 0.4}, Grid{64, 0.5}}) {
        const std::size_t n = grid.n;
        Rng rngA(0xF1E1D);
        FieldSample a1, a2;
        generateFieldPair(n, grid.phi, rngA, FieldMethod::CirculantFFT,
                          a1, a2);

        Rng rngB(0xF1E1D);
        FieldSample b1, b2;
        {
            const ScalarGuard guard(true);
            generateFieldPair(n, grid.phi, rngB,
                              FieldMethod::CirculantFFT, b1, b2);
        }
        // Both generators must draw the same from here: the same
        // words (identical uniform consumption), then the same normal,
        // which differs if either side holds a pending spare.
        for (int draw = 0; draw < 4; ++draw)
            EXPECT_EQ(rngA.next(), rngB.next())
                << "n=" << n << " draw " << draw;
        EXPECT_EQ(rngA.normal(), rngB.normal()) << "n=" << n;

        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < n; ++c) {
                EXPECT_TRUE(
                    agreesWithin(a1.at(r, c), b1.at(r, c), 1e-10))
                    << "n=" << n;
                EXPECT_TRUE(
                    agreesWithin(a2.at(r, c), b2.at(r, c), 1e-10))
                    << "n=" << n;
            }
        }
    }
}

} // namespace
} // namespace varsched
