/**
 * @file
 * Unit tests for the radix-2 FFT: known transforms, round trips,
 * Parseval's identity, and the 2D wrapper.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "solver/fft.hh"
#include "solver/rng.hh"

namespace varsched
{
namespace
{

using Cx = std::complex<double>;

TEST(Fft, PowerOfTwoHelpers)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(12));
    EXPECT_EQ(nextPowerOfTwo(1), 1u);
    EXPECT_EQ(nextPowerOfTwo(5), 8u);
    EXPECT_EQ(nextPowerOfTwo(64), 64u);
    EXPECT_EQ(nextPowerOfTwo(65), 128u);
}

TEST(Fft, DeltaTransformsToConstant)
{
    std::vector<Cx> v(8, Cx(0.0, 0.0));
    v[0] = Cx(1.0, 0.0);
    fft(v, false);
    for (const auto &x : v) {
        EXPECT_NEAR(x.real(), 1.0, 1e-12);
        EXPECT_NEAR(x.imag(), 0.0, 1e-12);
    }
}

TEST(Fft, ConstantTransformsToDelta)
{
    std::vector<Cx> v(8, Cx(1.0, 0.0));
    fft(v, false);
    EXPECT_NEAR(v[0].real(), 8.0, 1e-12);
    for (std::size_t i = 1; i < v.size(); ++i)
        EXPECT_NEAR(std::abs(v[i]), 0.0, 1e-12);
}

TEST(Fft, KnownSineBin)
{
    // A pure complex exponential at bin 3 lands entirely in bin 3.
    const std::size_t n = 16;
    std::vector<Cx> v(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double ang = 2.0 * M_PI * 3.0 * static_cast<double>(i) /
            static_cast<double>(n);
        v[i] = Cx(std::cos(ang), std::sin(ang));
    }
    fft(v, false);
    EXPECT_NEAR(std::abs(v[3]), static_cast<double>(n), 1e-9);
    for (std::size_t i = 0; i < n; ++i) {
        if (i != 3) {
            EXPECT_NEAR(std::abs(v[i]), 0.0, 1e-9);
        }
    }
}

TEST(Fft, RoundTripRestoresInput)
{
    Rng rng(3);
    std::vector<Cx> v(64);
    std::vector<Cx> orig(64);
    for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = Cx(rng.normal(), rng.normal());
        orig[i] = v[i];
    }
    fft(v, false);
    fft(v, true);
    for (std::size_t i = 0; i < v.size(); ++i) {
        EXPECT_NEAR(v[i].real() / 64.0, orig[i].real(), 1e-10);
        EXPECT_NEAR(v[i].imag() / 64.0, orig[i].imag(), 1e-10);
    }
}

TEST(Fft, ParsevalHolds)
{
    Rng rng(9);
    std::vector<Cx> v(128);
    double timeEnergy = 0.0;
    for (auto &x : v) {
        x = Cx(rng.normal(), rng.normal());
        timeEnergy += std::norm(x);
    }
    fft(v, false);
    double freqEnergy = 0.0;
    for (const auto &x : v)
        freqEnergy += std::norm(x);
    EXPECT_NEAR(freqEnergy / 128.0, timeEnergy, 1e-6 * timeEnergy);
}

TEST(Fft2d, RoundTrip)
{
    Rng rng(11);
    const std::size_t rows = 8, cols = 16;
    std::vector<Cx> v(rows * cols);
    std::vector<Cx> orig(rows * cols);
    for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = Cx(rng.normal(), rng.normal());
        orig[i] = v[i];
    }
    fft2d(v, rows, cols, false);
    fft2d(v, rows, cols, true);
    const double scale = static_cast<double>(rows * cols);
    for (std::size_t i = 0; i < v.size(); ++i) {
        EXPECT_NEAR(v[i].real() / scale, orig[i].real(), 1e-10);
        EXPECT_NEAR(v[i].imag() / scale, orig[i].imag(), 1e-10);
    }
}

TEST(Fft2d, SeparableDelta)
{
    const std::size_t rows = 4, cols = 4;
    std::vector<Cx> v(rows * cols, Cx(0.0, 0.0));
    v[0] = Cx(1.0, 0.0);
    fft2d(v, rows, cols, false);
    for (const auto &x : v)
        EXPECT_NEAR(x.real(), 1.0, 1e-12);
}

} // namespace
} // namespace varsched
