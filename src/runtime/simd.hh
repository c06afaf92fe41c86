/**
 * @file
 * Portable explicit-SIMD kernels for the batched numeric sweeps.
 *
 * PR 5 restructured the hot kernels as contiguous structure-of-arrays
 * sweeps so they *could* be vectorised; this header finishes the job
 * with explicit vector implementations:
 *
 *   - AVX2+FMA (x86-64), selected at run time: every vector body is a
 *     separate `target("avx2,fma")` function, compiled whatever the
 *     build flags, and enabled() dispatches to it when the CPU reports
 *     both features (checked once per process)
 *   - NEON (aarch64, baseline there, so selected at compile time) for
 *     the dot kernel
 *   - scalar fallback everywhere else
 *
 * The scalar fallback is not a separate algorithm: it is the exact
 * pre-SIMD code path (libm calls in the original order), kept in the
 * un-attributed dispatching function so the compiler cannot contract
 * it into FMAs; forced on, it is bit-identical to the pre-PR7 loops.
 * The vector paths replace libm's exp/log/sin/cos with inline
 * polynomial kernels (fdlibm-style coefficients); each agrees with
 * the scalar oracle to <= 1e-12 relative — the same agreement
 * contract the PR 5 batched kernels carry against their scalar
 * references — and the property tests in tests/test_simd.cc pin that
 * bound on both the dispatched and the forced-scalar path.
 *
 * Runtime override: VARSCHED_SIMD=scalar (or =off) forces the scalar
 * fallback on a vector-capable host — this is what the forced-scalar
 * ctest configuration uses to keep the fallback green, and what A/B
 * checks against the pre-vector numerics use — and tests can toggle
 * the same switch with simd::setForceScalar().
 */

#ifndef VARSCHED_RUNTIME_SIMD_HH
#define VARSCHED_RUNTIME_SIMD_HH

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VARSCHED_SIMD_AVX2 1
#include <immintrin.h>
/** Compiles a vector body for AVX2+FMA regardless of the build flags;
 *  only enabled() may route a call into one. */
#define VARSCHED_AVX2_TARGET __attribute__((target("avx2,fma")))
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define VARSCHED_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace varsched::simd
{

namespace detail
{

/** Process-wide test/CI override; see setForceScalar(). */
inline bool forceScalarOverride = false;

/**
 * True when the vector path may run at all: the CPU has it (AVX2 and
 * FMA on x86-64; NEON is baseline on aarch64) and VARSCHED_SIMD does
 * not force the fallback. Decided once per process.
 */
inline bool
vectorAvailable()
{
    static const bool available = []() {
        const char *value = std::getenv("VARSCHED_SIMD");
        if (value != nullptr && (std::strcmp(value, "scalar") == 0 ||
                                 std::strcmp(value, "off") == 0))
            return false;
#if defined(VARSCHED_SIMD_AVX2)
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") &&
            __builtin_cpu_supports("fma");
#elif defined(VARSCHED_SIMD_NEON)
        return true;
#else
        return false;
#endif
    }();
    return available;
}

} // namespace detail

/**
 * Force the scalar fallback at runtime (tests compare the dispatched
 * and forced-scalar paths against each other). The VARSCHED_SIMD env
 * override is read once; this switch composes with it.
 */
inline void
setForceScalar(bool force)
{
    detail::forceScalarOverride = force;
}

/** True when the sweeps dispatch to the vector path. */
inline bool
enabled()
{
    return detail::vectorAvailable() && !detail::forceScalarOverride;
}

/** Name of the instruction set the sweeps dispatch to right now. */
inline const char *
activeIsa()
{
#if defined(VARSCHED_SIMD_AVX2)
    return enabled() ? "avx2" : "scalar";
#elif defined(VARSCHED_SIMD_NEON)
    return enabled() ? "neon" : "scalar";
#else
    return "scalar";
#endif
}

#if defined(VARSCHED_SIMD_AVX2)

namespace detail
{

// ---------------------------------------------------------------
// AVX2 transcendental kernels. Four doubles per vector; fdlibm-style
// range reduction and polynomial coefficients, ~1 ulp, far inside
// the 1e-12 agreement contract against libm.

/** exp() on four lanes. Handles overflow/underflow/NaN via blends. */
VARSCHED_AVX2_TARGET inline __m256d
vexp(__m256d x)
{
    const __m256d log2e = _mm256_set1_pd(1.4426950408889634074);
    const __m256d ln2hi = _mm256_set1_pd(6.93147180369123816490e-01);
    const __m256d ln2lo = _mm256_set1_pd(1.90821492927058770002e-10);

    // k = round(x / ln2); r = x - k*ln2 (Cody-Waite two-part).
    const __m256d k = _mm256_round_pd(
        _mm256_mul_pd(x, log2e),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    __m256d r = _mm256_fnmadd_pd(k, ln2hi, x);
    r = _mm256_fnmadd_pd(k, ln2lo, r);

    // Taylor series to degree 13 on |r| <= ln2/2, Horner with FMA.
    __m256d p = _mm256_set1_pd(1.0 / 6227020800.0); // 1/13!
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 479001600.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 39916800.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 3628800.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 362880.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 40320.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 5040.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 720.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 120.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 24.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 6.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(0.5));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));

    // Scale by 2^k in two steps so subnormal results stay exact-ish:
    // 2^k = 2^k1 * 2^k2 with k1 = k/2 — each factor has an in-range
    // exponent even when k itself would not.
    const __m128i ki = _mm256_cvtpd_epi32(k); // saturates on huge x;
                                              // blended over below
    const __m128i k1 = _mm_srai_epi32(ki, 1);
    const __m128i k2 = _mm_sub_epi32(ki, k1);
    const __m256i bias = _mm256_set1_epi64x(1023);
    const __m256d s1 = _mm256_castsi256_pd(_mm256_slli_epi64(
        _mm256_add_epi64(_mm256_cvtepi32_epi64(k1), bias), 52));
    const __m256d s2 = _mm256_castsi256_pd(_mm256_slli_epi64(
        _mm256_add_epi64(_mm256_cvtepi32_epi64(k2), bias), 52));
    __m256d result = _mm256_mul_pd(_mm256_mul_pd(p, s1), s2);

    // Out-of-range and NaN lanes.
    const __m256d hiCut = _mm256_set1_pd(709.782712893384);
    const __m256d loCut = _mm256_set1_pd(-745.2);
    result = _mm256_blendv_pd(
        result, _mm256_set1_pd(HUGE_VAL),
        _mm256_cmp_pd(x, hiCut, _CMP_GT_OQ));
    result = _mm256_blendv_pd(
        result, _mm256_setzero_pd(),
        _mm256_cmp_pd(x, loCut, _CMP_LT_OQ));
    result = _mm256_blendv_pd(result, x,
                              _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
    return result;
}

/**
 * log() on four lanes for strictly-positive finite inputs (the only
 * arguments the sweeps produce: clamped overdrives and (0,1)
 * uniforms). Subnormals are pre-normalised; 0/negative/NaN lanes are
 * not fixed up here — callers guarantee the domain.
 */
VARSCHED_AVX2_TARGET inline __m256d
vlog(__m256d x)
{
    const __m256d ln2hi = _mm256_set1_pd(6.93147180369123816490e-01);
    const __m256d ln2lo = _mm256_set1_pd(1.90821492927058770002e-10);

    // Normalise subnormal lanes: x *= 2^54, e -= 54.
    const __m256d tiny = _mm256_set1_pd(2.2250738585072014e-308);
    const __m256d sub = _mm256_cmp_pd(x, tiny, _CMP_LT_OQ);
    x = _mm256_blendv_pd(
        x, _mm256_mul_pd(x, _mm256_set1_pd(0x1.0p54)), sub);
    const __m256d eAdjust =
        _mm256_and_pd(sub, _mm256_set1_pd(-54.0));

    // Split x = 2^e * m with m in [1, 2).
    const __m256i ix = _mm256_castpd_si256(x);
    const __m256i expBits = _mm256_srli_epi64(ix, 52);
    // Pack the four 64-bit exponents into 32-bit lanes for the int->
    // double conversion (AVX2 has no 64-bit cvt).
    const __m256i packIdx =
        _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    const __m128i exp32 = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(expBits, packIdx));
    __m256d e = _mm256_sub_pd(_mm256_cvtepi32_pd(exp32),
                              _mm256_set1_pd(1023.0));
    e = _mm256_add_pd(e, eAdjust);

    const __m256i mantMask =
        _mm256_set1_epi64x(0x000fffffffffffffll);
    const __m256i oneBits =
        _mm256_set1_epi64x(0x3ff0000000000000ll);
    __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
        _mm256_and_si256(ix, mantMask), oneBits));

    // Fold m into [sqrt(1/2), sqrt(2)) so s below stays small.
    const __m256d sqrt2 = _mm256_set1_pd(1.4142135623730951);
    const __m256d fold = _mm256_cmp_pd(m, sqrt2, _CMP_GT_OQ);
    m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)),
                         fold);
    e = _mm256_add_pd(e,
                      _mm256_and_pd(fold, _mm256_set1_pd(1.0)));

    // log(m) = 2 atanh(s), s = (m-1)/(m+1), |s| <= 0.1716.
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d s = _mm256_div_pd(_mm256_sub_pd(m, one),
                                    _mm256_add_pd(m, one));
    const __m256d z = _mm256_mul_pd(s, s);
    __m256d t = _mm256_set1_pd(2.0 / 23.0);
    t = _mm256_fmadd_pd(t, z, _mm256_set1_pd(2.0 / 21.0));
    t = _mm256_fmadd_pd(t, z, _mm256_set1_pd(2.0 / 19.0));
    t = _mm256_fmadd_pd(t, z, _mm256_set1_pd(2.0 / 17.0));
    t = _mm256_fmadd_pd(t, z, _mm256_set1_pd(2.0 / 15.0));
    t = _mm256_fmadd_pd(t, z, _mm256_set1_pd(2.0 / 13.0));
    t = _mm256_fmadd_pd(t, z, _mm256_set1_pd(2.0 / 11.0));
    t = _mm256_fmadd_pd(t, z, _mm256_set1_pd(2.0 / 9.0));
    t = _mm256_fmadd_pd(t, z, _mm256_set1_pd(2.0 / 7.0));
    t = _mm256_fmadd_pd(t, z, _mm256_set1_pd(2.0 / 5.0));
    t = _mm256_fmadd_pd(t, z, _mm256_set1_pd(2.0 / 3.0));
    const __m256d logm = _mm256_fmadd_pd(
        _mm256_mul_pd(s, z), t, _mm256_add_pd(s, s));

    // log(x) = e*ln2hi + (log(m) + e*ln2lo).
    return _mm256_fmadd_pd(e, ln2hi,
                           _mm256_fmadd_pd(e, ln2lo, logm));
}

/**
 * Simultaneous sin/cos on four lanes for |x| up to a few thousand
 * (the sweeps pass Box-Muller angles in [0, 2pi)). fdlibm kernel
 * polynomials after Cody-Waite pi/2 reduction.
 */
VARSCHED_AVX2_TARGET inline void
vsincos(__m256d x, __m256d &sinOut, __m256d &cosOut)
{
    const __m256d twoOverPi =
        _mm256_set1_pd(6.36619772367581382433e-01);
    const __m256d pio2_1 = _mm256_set1_pd(1.57079632673412561417e+00);
    const __m256d pio2_1t = _mm256_set1_pd(6.07710050650619224932e-11);
    const __m256d pio2_2t = _mm256_set1_pd(2.02226624879595063154e-21);

    const __m256d q = _mm256_round_pd(
        _mm256_mul_pd(x, twoOverPi),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    __m256d r = _mm256_fnmadd_pd(q, pio2_1, x);
    r = _mm256_fnmadd_pd(q, pio2_1t, r);
    r = _mm256_fnmadd_pd(q, pio2_2t, r);

    const __m256d z = _mm256_mul_pd(r, r);

    // fdlibm __kernel_sin coefficients.
    __m256d ps = _mm256_set1_pd(1.58969099521155010221e-10);
    ps = _mm256_fmadd_pd(ps, z,
                         _mm256_set1_pd(-2.50507602534068634195e-08));
    ps = _mm256_fmadd_pd(ps, z,
                         _mm256_set1_pd(2.75573137070700676789e-06));
    ps = _mm256_fmadd_pd(ps, z,
                         _mm256_set1_pd(-1.98412698298579493134e-04));
    ps = _mm256_fmadd_pd(ps, z,
                         _mm256_set1_pd(8.33333333332248946124e-03));
    ps = _mm256_fmadd_pd(ps, z,
                         _mm256_set1_pd(-1.66666666666666324348e-01));
    const __m256d sinR =
        _mm256_fmadd_pd(_mm256_mul_pd(z, r), ps, r);

    // fdlibm __kernel_cos coefficients.
    __m256d pc = _mm256_set1_pd(-1.13596475577881948265e-11);
    pc = _mm256_fmadd_pd(pc, z,
                         _mm256_set1_pd(2.08757232129817482790e-09));
    pc = _mm256_fmadd_pd(pc, z,
                         _mm256_set1_pd(-2.75573143513906633035e-07));
    pc = _mm256_fmadd_pd(pc, z,
                         _mm256_set1_pd(2.48015872894767294178e-05));
    pc = _mm256_fmadd_pd(pc, z,
                         _mm256_set1_pd(-1.38888888888741095749e-03));
    pc = _mm256_fmadd_pd(pc, z,
                         _mm256_set1_pd(4.16666666666666019037e-02));
    const __m256d half = _mm256_set1_pd(0.5);
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d hz = _mm256_mul_pd(half, z);
    const __m256d w = _mm256_sub_pd(one, hz);
    // cos(r) = w + (((1-w) - hz) + z*z*pc): regroup so the small
    // correction is added to the already-rounded 1 - z/2.
    const __m256d cosR = _mm256_add_pd(
        w, _mm256_add_pd(
               _mm256_sub_pd(_mm256_sub_pd(one, w), hz),
               _mm256_mul_pd(_mm256_mul_pd(z, z), pc)));

    // Quadrant fix-up: q mod 4 selects the (sin, cos) permutation.
    const __m128i qi = _mm256_cvtpd_epi32(q);
    const __m256i q64 = _mm256_cvtepi32_epi64(qi);
    const __m256i oneI = _mm256_set1_epi64x(1);
    const __m256d swap = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
        _mm256_and_si256(q64, oneI), oneI));
    const __m256i two = _mm256_set1_epi64x(2);
    const __m256d negSin = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
        _mm256_and_si256(q64, two), two));
    const __m256d negCos = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
        _mm256_and_si256(_mm256_add_epi64(q64, oneI), two), two));

    const __m256d signBit = _mm256_set1_pd(-0.0);
    __m256d sv = _mm256_blendv_pd(sinR, cosR, swap);
    __m256d cv = _mm256_blendv_pd(cosR, sinR, swap);
    sv = _mm256_xor_pd(sv, _mm256_and_pd(negSin, signBit));
    cv = _mm256_xor_pd(cv, _mm256_and_pd(negCos, signBit));
    sinOut = sv;
    cosOut = cv;
}

// ---------------------------------------------------------------
// AVX2 sweep bodies, one per public sweep below. Scalar tails run
// here too, so they may be FMA-contracted like the vector lanes.

VARSCHED_AVX2_TARGET inline void
expSweepAvx2(const double *x, double *out, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(out + i, vexp(_mm256_loadu_pd(x + i)));
    for (; i < n; ++i)
        out[i] = std::exp(x[i]);
}

VARSCHED_AVX2_TARGET inline void
powSweepAvx2(const double *x, double y, double *out, std::size_t n)
{
    const __m256d vy = _mm256_set1_pd(y);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d lx = vlog(_mm256_loadu_pd(x + i));
        _mm256_storeu_pd(out + i, vexp(_mm256_mul_pd(vy, lx)));
    }
    for (; i < n; ++i)
        out[i] = std::pow(x[i], y);
}

VARSCHED_AVX2_TARGET inline void
sinCosSweepAvx2(const double *x, double *sinOut, double *cosOut,
                std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256d s, c;
        vsincos(_mm256_loadu_pd(x + i), s, c);
        _mm256_storeu_pd(sinOut + i, s);
        _mm256_storeu_pd(cosOut + i, c);
    }
    for (; i < n; ++i) {
        sinOut[i] = std::sin(x[i]);
        cosOut[i] = std::cos(x[i]);
    }
}

VARSCHED_AVX2_TARGET inline void
boxMullerSweepAvx2(const double *u1, const double *u2, double *cosOut,
                   double *sinOut, std::size_t n)
{
    const __m256d minusTwo = _mm256_set1_pd(-2.0);
    const __m256d twoPi =
        _mm256_set1_pd(6.283185307179586476925286766559);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d lu = vlog(_mm256_loadu_pd(u1 + i));
        const __m256d mag = _mm256_sqrt_pd(_mm256_mul_pd(minusTwo, lu));
        __m256d s, c;
        vsincos(_mm256_mul_pd(twoPi, _mm256_loadu_pd(u2 + i)), s, c);
        _mm256_storeu_pd(cosOut + i, _mm256_mul_pd(mag, c));
        _mm256_storeu_pd(sinOut + i, _mm256_mul_pd(mag, s));
    }
    for (; i < n; ++i) {
        const double mag = std::sqrt(-2.0 * std::log(u1[i]));
        const double ang =
            2.0 * 3.141592653589793238462643383279502884 * u2[i];
        cosOut[i] = mag * std::cos(ang);
        sinOut[i] = mag * std::sin(ang);
    }
}

VARSCHED_AVX2_TARGET inline double
dotAvx2(const double *a, const double *b, std::size_t n)
{
    __m256d acc = _mm256_setzero_pd();
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
        acc = _mm256_fmadd_pd(_mm256_loadu_pd(a + k),
                              _mm256_loadu_pd(b + k), acc);
    }
    const __m128d lo = _mm256_castpd256_pd128(acc);
    const __m128d hi = _mm256_extractf128_pd(acc, 1);
    // (s0 + s1) + (s2 + s3): same fold order as the scalar path.
    const __m128d pair =
        _mm_add_pd(_mm_unpacklo_pd(lo, hi), _mm_unpackhi_pd(lo, hi));
    double s =
        _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
    for (; k < n; ++k)
        s += a[k] * b[k];
    return s;
}

VARSCHED_AVX2_TARGET inline void
axpyNegAvx2(double *y, double a, const double *x, std::size_t n)
{
    const __m256d va = _mm256_set1_pd(a);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        _mm256_storeu_pd(y + i,
                         _mm256_fnmadd_pd(va, _mm256_loadu_pd(x + i),
                                          _mm256_loadu_pd(y + i)));
    }
    for (; i < n; ++i)
        y[i] -= a * x[i];
}

/** Two butterflies per iteration with the addsub complex multiply;
 *  @pre half >= 2. */
VARSCHED_AVX2_TARGET inline void
butterflyStageAvx2(std::complex<double> *lo, std::complex<double> *hi,
                   const std::complex<double> *tw, std::size_t stride,
                   std::size_t half, bool inverse)
{
    const __m256d conjMask = inverse
        ? _mm256_setr_pd(0.0, -0.0, 0.0, -0.0)
        : _mm256_setzero_pd();
    std::size_t k = 0;
    for (; k + 2 <= half; k += 2) {
        // w = [w0.re, w0.im, w1.re, w1.im], conjugated if inverse.
        __m256d w;
        if (stride == 1) {
            w = _mm256_loadu_pd(reinterpret_cast<const double *>(tw + k));
        } else {
            w = _mm256_set_m128d(
                _mm_loadu_pd(reinterpret_cast<const double *>(
                    tw + (k + 1) * stride)),
                _mm_loadu_pd(
                    reinterpret_cast<const double *>(tw + k * stride)));
        }
        w = _mm256_xor_pd(w, conjMask);

        const __m256d h =
            _mm256_loadu_pd(reinterpret_cast<const double *>(hi + k));
        const __m256d u =
            _mm256_loadu_pd(reinterpret_cast<const double *>(lo + k));
        // Complex multiply h*w: (a+bi)(c+di) = (ac-bd)+(bc+ad)i.
        const __m256d wr = _mm256_movedup_pd(w);      // [c, c]
        const __m256d wi = _mm256_permute_pd(w, 0xF); // [d, d]
        const __m256d hs = _mm256_permute_pd(h, 0x5); // [b, a]
        const __m256d v =
            _mm256_fmaddsub_pd(h, wr, _mm256_mul_pd(hs, wi));
        _mm256_storeu_pd(reinterpret_cast<double *>(lo + k),
                         _mm256_add_pd(u, v));
        _mm256_storeu_pd(reinterpret_cast<double *>(hi + k),
                         _mm256_sub_pd(u, v));
    }
    for (; k < half; ++k) {
        const std::complex<double> &t = tw[k * stride];
        const std::complex<double> w = inverse ? std::conj(t) : t;
        const std::complex<double> u = lo[k];
        const std::complex<double> v = std::complex<double>(
            hi[k].real() * w.real() - hi[k].imag() * w.imag(),
            hi[k].imag() * w.real() + hi[k].real() * w.imag());
        lo[k] = u + v;
        hi[k] = u - v;
    }
}

} // namespace detail

#endif // VARSCHED_SIMD_AVX2

// -------------------------------------------------------------------
// Sweeps. Every function's scalar branch is the exact pre-SIMD code.

/** out[i] = exp(x[i]). */
inline void
expSweep(const double *x, double *out, std::size_t n)
{
#if defined(VARSCHED_SIMD_AVX2)
    if (enabled()) {
        detail::expSweepAvx2(x, out, n);
        return;
    }
#endif
    for (std::size_t i = 0; i < n; ++i)
        out[i] = std::exp(x[i]);
}

/** out[i] = pow(x[i], y) for strictly-positive x[i]. */
inline void
powSweep(const double *x, double y, double *out, std::size_t n)
{
#if defined(VARSCHED_SIMD_AVX2)
    if (enabled()) {
        detail::powSweepAvx2(x, y, out, n);
        return;
    }
#endif
    for (std::size_t i = 0; i < n; ++i)
        out[i] = std::pow(x[i], y);
}

/** sinOut[i] = sin(x[i]), cosOut[i] = cos(x[i]). */
inline void
sinCosSweep(const double *x, double *sinOut, double *cosOut,
            std::size_t n)
{
#if defined(VARSCHED_SIMD_AVX2)
    if (enabled()) {
        detail::sinCosSweepAvx2(x, sinOut, cosOut, n);
        return;
    }
#endif
    for (std::size_t i = 0; i < n; ++i) {
        sinOut[i] = std::sin(x[i]);
        cosOut[i] = std::cos(x[i]);
    }
}

/**
 * Box-Muller transform of pre-drawn uniforms: for each i,
 *   mag = sqrt(-2 ln u1[i]), ang = 2 pi u2[i],
 *   cosOut[i] = mag * cos(ang), sinOut[i] = mag * sin(ang)
 * — exactly the (first, second) values Rng::normal() returns for one
 * uniform pair, so a caller that stages its uniforms in draw order
 * reproduces the sequential stream.
 */
inline void
boxMullerSweep(const double *u1, const double *u2, double *cosOut,
               double *sinOut, std::size_t n)
{
#if defined(VARSCHED_SIMD_AVX2)
    if (enabled()) {
        detail::boxMullerSweepAvx2(u1, u2, cosOut, sinOut, n);
        return;
    }
#endif
    for (std::size_t i = 0; i < n; ++i) {
        const double mag = std::sqrt(-2.0 * std::log(u1[i]));
        const double ang =
            2.0 * 3.141592653589793238462643383279502884 * u2[i];
        cosOut[i] = mag * std::cos(ang);
        sinOut[i] = mag * std::sin(ang);
    }
}

/**
 * first[k], second[k] = the next two rng.normal() draws, k < pairs. On
 * the vector path, with no spare pending, uniforms are staged in
 * Rng::normal() order through boxMullerSweep(): same generator state
 * after, values within 1e-12 of the scalar draws used otherwise.
 */
template <class Generator>
inline void
normalPairSweep(Generator &rng, double *first, double *second,
                std::size_t pairs)
{
    if (!enabled() || rng.hasNormalSpare()) {
        for (std::size_t k = 0; k < pairs; ++k) {
            first[k] = rng.normal();
            second[k] = rng.normal();
        }
        return;
    }
    constexpr std::size_t kBlock = 1024;
    double u1[kBlock], u2[kBlock];
    for (std::size_t base = 0; base < pairs; base += kBlock) {
        const std::size_t len = std::min(kBlock, pairs - base);
        for (std::size_t j = 0; j < len; ++j) {
            double a = 0.0;
            while (a == 0.0)
                a = rng.uniform();
            u1[j] = a;
            u2[j] = rng.uniform();
        }
        boxMullerSweep(u1, u2, first + base, second + base, len);
    }
}

/**
 * Dot product of two contiguous spans with the PR 5 register-blocked
 * reduction order: four stride-4 accumulators folded as
 * (s0+s1)+(s2+s3), tail appended serially. The vector paths keep the
 * four logical accumulators in vector lanes, so they differ from the
 * scalar fallback only by FMA contraction.
 */
inline double
dot(const double *a, const double *b, std::size_t n)
{
#if defined(VARSCHED_SIMD_AVX2)
    if (enabled())
        return detail::dotAvx2(a, b, n);
#elif defined(VARSCHED_SIMD_NEON)
    if (enabled()) {
        // Lanes hold (s0, s1) and (s2, s3); fold as (s0+s1)+(s2+s3).
        float64x2_t acc01 = vdupq_n_f64(0.0);
        float64x2_t acc23 = vdupq_n_f64(0.0);
        std::size_t k = 0;
        for (; k + 4 <= n; k += 4) {
            acc01 = vfmaq_f64(acc01, vld1q_f64(a + k), vld1q_f64(b + k));
            acc23 = vfmaq_f64(acc23, vld1q_f64(a + k + 2),
                              vld1q_f64(b + k + 2));
        }
        double s = vaddvq_f64(acc01) + vaddvq_f64(acc23);
        for (; k < n; ++k)
            s += a[k] * b[k];
        return s;
    }
#endif
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

/** y[i] -= a * x[i] — the backward-substitution update sweep. */
inline void
axpyNeg(double *y, double a, const double *x, std::size_t n)
{
#if defined(VARSCHED_SIMD_AVX2)
    if (enabled()) {
        detail::axpyNegAvx2(y, a, x, n);
        return;
    }
#endif
    for (std::size_t i = 0; i < n; ++i)
        y[i] -= a * x[i];
}

/**
 * One radix-2 butterfly stage over a lo/hi span pair:
 *   v = hi[k] * w_k;  hi[k] = lo[k] - v;  lo[k] = lo[k] + v
 * with w_k = tw[k*stride] (conjugated for inverse transforms). The
 * scalar branch is the exact pre-SIMD loop from solver/fft.cc; the
 * AVX2 branch does two butterflies per iteration with the
 * addsub-based complex multiply.
 */
inline void
butterflyStage(std::complex<double> *lo, std::complex<double> *hi,
               const std::complex<double> *tw, std::size_t stride,
               std::size_t half, bool inverse)
{
#if defined(VARSCHED_SIMD_AVX2)
    if (enabled() && half >= 2) {
        detail::butterflyStageAvx2(lo, hi, tw, stride, half, inverse);
        return;
    }
#endif
    for (std::size_t k = 0; k < half; ++k) {
        const std::complex<double> &t = tw[k * stride];
        const std::complex<double> w = inverse ? std::conj(t) : t;
        const std::complex<double> u = lo[k];
        const std::complex<double> v = hi[k] * w;
        lo[k] = u + v;
        hi[k] = u - v;
    }
}

} // namespace varsched::simd

#endif // VARSCHED_RUNTIME_SIMD_HH
