#include "varius/field.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <complex>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>

#include "runtime/metrics.hh"
#include "runtime/simd.hh"
#include "solver/fft.hh"
#include "solver/matrix.hh"
#include "varius/correlation.hh"

namespace varsched
{

FieldSample::FieldSample(std::size_t n, std::vector<double> values)
    : n_(n), values_(std::move(values))
{
    assert(values_.size() == n_ * n_);
}

double
FieldSample::sample(double x, double y) const
{
    assert(n_ >= 2);
    x = std::clamp(x, 0.0, 1.0);
    y = std::clamp(y, 0.0, 1.0);
    const double gx = x * static_cast<double>(n_ - 1);
    const double gy = y * static_cast<double>(n_ - 1);
    const auto c0 = static_cast<std::size_t>(gx);
    const auto r0 = static_cast<std::size_t>(gy);
    const std::size_t c1 = std::min(c0 + 1, n_ - 1);
    const std::size_t r1 = std::min(r0 + 1, n_ - 1);
    const double fx = gx - static_cast<double>(c0);
    const double fy = gy - static_cast<double>(r0);
    const double v00 = at(r0, c0), v01 = at(r0, c1);
    const double v10 = at(r1, c0), v11 = at(r1, c1);
    return v00 * (1 - fx) * (1 - fy) + v01 * fx * (1 - fy) +
           v10 * (1 - fx) * fy + v11 * fx * fy;
}

double
FieldSample::mean() const
{
    double s = 0.0;
    for (double v : values_)
        s += v;
    return values_.empty() ? 0.0 : s / static_cast<double>(values_.size());
}

bool
FieldSample::writePgm(const std::string &path) const
{
    if (n_ == 0)
        return false;
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return false;

    double lo = values_[0], hi = values_[0];
    for (double v : values_) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    const double range = hi > lo ? hi - lo : 1.0;

    std::fprintf(f, "P5\n%zu %zu\n255\n", n_, n_);
    std::vector<unsigned char> row(n_);
    for (std::size_t r = 0; r < n_; ++r) {
        // Flip vertically: row 0 of the grid is the die's bottom.
        const std::size_t src = n_ - 1 - r;
        for (std::size_t c = 0; c < n_; ++c) {
            row[c] = static_cast<unsigned char>(
                255.0 * (at(src, c) - lo) / range);
        }
        std::fwrite(row.data(), 1, n_, f);
    }
    std::fclose(f);
    return true;
}

double
FieldSample::stddev() const
{
    if (values_.size() < 2)
        return 0.0;
    const double m = mean();
    double s = 0.0;
    for (double v : values_)
        s += (v - m) * (v - m);
    return std::sqrt(s / static_cast<double>(values_.size() - 1));
}

namespace
{

/**
 * Cache of grid-covariance Cholesky factors keyed by (n, phi). The
 * covariance depends only on the grid geometry and the correlation
 * range — every die of a batch shares it — so a 200-die batch factors
 * the O(n³)-in-grid-points matrix exactly once instead of 200 times.
 * Guarded by a mutex: the parallel batch runner manufactures dies
 * concurrently. Entries are shared_ptr so a clearFieldFactorCache()
 * cannot pull the factor out from under a die mid-generation.
 */
std::mutex factorCacheMutex;
std::map<std::pair<std::size_t, double>,
         std::shared_ptr<const Matrix>> factorCache;

/** Factor for the (n, phi) grid covariance, computed or cached. */
std::shared_ptr<const Matrix>
gridCovarianceFactor(std::size_t n, double phi)
{
    const std::pair<std::size_t, double> key{n, phi};
    {
        std::lock_guard<std::mutex> lock(factorCacheMutex);
        const auto it = factorCache.find(key);
        if (it != factorCache.end())
            return it->second;
    }

    const std::size_t total = n * n;
    const double step = n > 1 ? 1.0 / static_cast<double>(n - 1) : 1.0;

    Matrix cov(total, total);
    for (std::size_t i = 0; i < total; ++i) {
        const double xi = static_cast<double>(i % n) * step;
        const double yi = static_cast<double>(i / n) * step;
        for (std::size_t j = 0; j <= i; ++j) {
            const double xj = static_cast<double>(j % n) * step;
            const double yj = static_cast<double>(j / n) * step;
            const double r = std::hypot(xi - xj, yi - yj);
            const double c = sphericalRho(r, phi);
            cov(i, j) = c;
            cov(j, i) = c;
        }
    }

    auto l = std::make_shared<Matrix>();
    const bool ok = cholesky(cov, *l);
    assert(ok);
    (void)ok;

    std::lock_guard<std::mutex> lock(factorCacheMutex);
    // Two threads may have raced to factor the same key; keep the
    // first insertion so every caller sees one factor.
    return factorCache.emplace(key, std::move(l)).first->second;
}

/** Exact generation through dense Cholesky of the grid covariance. */
FieldSample
generateCholesky(std::size_t n, double phi, Rng &rng)
{
    const std::shared_ptr<const Matrix> l = gridCovarianceFactor(n, phi);

    std::vector<double> z(n * n);
    for (auto &v : z)
        v = rng.normal();
    return FieldSample(n, lowerMultiply(*l, z));
}

/**
 * The die-independent half of circulant-embedding generation: the
 * square-root eigenvalue amplitudes, already scaled for the
 * unnormalised inverse FFT. Every die of a batch shares them, so they
 * are cached keyed by (n, phi) like the Cholesky factors — this
 * removes the covariance fill and the *forward* FFT from the per-die
 * cost entirely.
 */
std::mutex spectrumCacheMutex;
std::map<std::pair<std::size_t, double>,
         std::shared_ptr<const std::vector<double>>> spectrumCache;

std::shared_ptr<const std::vector<double>>
circulantAmplitudes(std::size_t n, double phi)
{
    const std::pair<std::size_t, double> key{n, phi};
    {
        std::lock_guard<std::mutex> lock(spectrumCacheMutex);
        const auto it = spectrumCache.find(key);
        if (it != spectrumCache.end())
            return it->second;
    }

    auto amp = std::make_shared<std::vector<double>>(
        circulantEigenvalues(n, phi));
    const double invTot = 1.0 / static_cast<double>(amp->size());
    for (double &a : *amp) {
        assert(a >= 0.0);
        a = std::sqrt(a * invTot);
    }

    std::lock_guard<std::mutex> lock(spectrumCacheMutex);
    // Keep the first insertion if two threads raced on the same key.
    return spectrumCache.emplace(key, std::move(amp)).first->second;
}

/**
 * Circulant-embedding generation (Dietrich & Newsam): colour complex
 * white noise with the cached square-root spectrum, inverse-transform,
 * and crop the top-left n x n corner. The real and imaginary planes
 * of the result are two *independent* unit-variance realisations of
 * the same covariance (the classic Dietrich–Newsam two-for-one), so
 * one synthesis yields a pair of fields; @p second may be null when
 * only one is wanted.
 */
FieldSample
generateCirculant(std::size_t n, double phi, Rng &rng,
                  FieldSample *second = nullptr)
{
    const std::shared_ptr<const std::vector<double>> amps =
        circulantAmplitudes(n, phi);
    const std::size_t m = circulantEmbeddingSize(n, phi);
    const std::size_t total = m * m;
    const double *amp = amps->data();

    // The noise plane is per-die scratch — 1 MiB at the default size
    // — that each thread keeps across dies, so steady-state manufacture
    // pays neither malloc nor zero-fill: the plane only grows, and
    // every point is overwritten below before it is read.
    static thread_local std::vector<std::complex<double>> plane;
    if (plane.size() < total)
        plane.resize(total);
    std::complex<double> *spec = plane.data();

    // One Box-Muller pair per point through stack blocks, imaginary
    // (cos) half first: the committed golden fields bake in the
    // right-to-left evaluation of complex(amp * normal(), amp *
    // normal()) on this toolchain.
    constexpr std::size_t kBlock = 1024;
    double imHalf[kBlock], reHalf[kBlock];
    for (std::size_t base = 0; base < total; base += kBlock) {
        const std::size_t len = std::min(kBlock, total - base);
        simd::normalPairSweep(rng, imHalf, reHalf, len);
        for (std::size_t j = 0; j < len; ++j) {
            const double scale = amp[base + j];
            spec[base + j] = std::complex<double>(scale * reHalf[j],
                                                  scale * imHalf[j]);
        }
    }

    // Only the top-left n x n corner is cropped below, so the column
    // pass can skip the other m - n columns entirely (bit-identical
    // for the kept corner).
    fft2dCorner(spec, m, m, false, n, n);

    std::vector<double> values(n * n), valuesB(second ? n * n : 0);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
            values[r * n + c] = spec[r * m + c].real();
            if (second != nullptr)
                valuesB[r * n + c] = spec[r * m + c].imag();
        }
    }
    if (second != nullptr)
        *second = FieldSample(n, std::move(valuesB));
    return FieldSample(n, std::move(values));
}

/**
 * Whole-sample cache: (pre-generation RNG state, n, phi, method) →
 * (sampled field, post-generation RNG state). Generation is a pure
 * function of that key, so a hit replays it exactly — same values,
 * same downstream RNG stream — which is what makes re-manufacturing
 * an identical die (thread sweeps re-running the same batch) free.
 * FIFO-bounded: a paper-scale batch of distinct dies misses on every
 * entry, and the cap keeps its memory flat instead of accumulating
 * hundreds of n² grids.
 */
struct FieldSampleKey
{
    std::array<std::uint64_t, 6> rng;
    std::size_t n;
    double phi;
    int method;

    bool
    operator<(const FieldSampleKey &o) const
    {
        if (rng != o.rng)
            return rng < o.rng;
        if (n != o.n)
            return n < o.n;
        if (phi != o.phi)
            return phi < o.phi;
        return method < o.method;
    }
};

struct FieldSampleEntry
{
    FieldSample field;
    FieldSample fieldB; ///< Second field of a pair entry; empty else.
    std::array<std::uint64_t, 6> rngAfter;
};

/** Key-space tag separating pair entries from single-field entries. */
constexpr int kPairMethodBit = 0x100;

constexpr std::size_t kFieldSampleCacheCap = 64;
std::mutex sampleCacheMutex;
std::map<FieldSampleKey, FieldSampleEntry> sampleCache;
std::deque<FieldSampleKey> sampleCacheOrder;

/** Registry handles for the sample cache: hits and misses per lookup. */
struct SampleCacheMetrics
{
    metrics::Counter &hits;
    metrics::Counter &misses;
};

SampleCacheMetrics &
sampleCacheMetrics()
{
    static SampleCacheMetrics handles{
        metrics::Registry::global().counter("varius.field_cache.hits"),
        metrics::Registry::global().counter("varius.field_cache.misses")};
    return handles;
}

/**
 * Replay a cached generation for @p key: restore the post-generation
 * RNG state and copy the field(s) out. False on a miss.
 */
bool
replayCachedSample(const FieldSampleKey &key, Rng &rng,
                   FieldSample &field, FieldSample *fieldB)
{
    std::lock_guard<std::mutex> lock(sampleCacheMutex);
    const auto it = sampleCache.find(key);
    if (it == sampleCache.end()) {
        sampleCacheMetrics().misses.add();
        return false;
    }
    sampleCacheMetrics().hits.add();
    rng.restoreState(it->second.rngAfter);
    field = it->second.field;
    if (fieldB != nullptr)
        *fieldB = it->second.fieldB;
    return true;
}

void
storeSample(const FieldSampleKey &key, FieldSampleEntry entry)
{
    std::lock_guard<std::mutex> lock(sampleCacheMutex);
    // Two threads may have raced on the same die; insert-once keeps
    // the FIFO order list consistent with the map.
    if (sampleCache.emplace(key, std::move(entry)).second) {
        sampleCacheOrder.push_back(key);
        if (sampleCacheOrder.size() > kFieldSampleCacheCap) {
            sampleCache.erase(sampleCacheOrder.front());
            sampleCacheOrder.pop_front();
        }
    }
}

/**
 * One generation through the sample cache: replay a hit, else draw
 * @p fieldA (and @p fieldB for a pair) and store the result.
 */
void
generateCached(std::size_t n, double phi, Rng &rng, FieldMethod method,
               FieldSample &fieldA, FieldSample *fieldB)
{
    assert(n >= 2);
    assert(phi > 0.0);

    const int pairBit = fieldB != nullptr ? kPairMethodBit : 0;
    const FieldSampleKey key{rng.captureState(), n, phi,
                             static_cast<int>(method) | pairBit};
    if (replayCachedSample(key, rng, fieldA, fieldB))
        return;

    if (method == FieldMethod::Cholesky) {
        // Exact path: a pair is two sequential draws, the same stream
        // as two generateField() calls.
        fieldA = generateCholesky(n, phi, rng);
        if (fieldB != nullptr)
            *fieldB = generateCholesky(n, phi, rng);
    } else {
        // One synthesis; a pair takes its Re and Im planes.
        fieldA = generateCirculant(n, phi, rng, fieldB);
    }

    storeSample(key, FieldSampleEntry{fieldA,
                                      fieldB ? *fieldB : FieldSample{},
                                      rng.captureState()});
}

} // namespace

std::size_t
circulantEmbeddingSize(std::size_t n, double phi)
{
    assert(n >= 2);
    const double step = 1.0 / static_cast<double>(n - 1);
    const auto range = static_cast<std::size_t>(std::ceil(phi / step));
    return nextPowerOfTwo(std::max(2 * (n - 1), 2 * range));
}

std::vector<double>
circulantEigenvalues(std::size_t n, double phi)
{
    const std::size_t m = circulantEmbeddingSize(n, phi);
    const double step = 1.0 / static_cast<double>(n - 1);
    std::vector<std::complex<double>> spec(m * m);
    for (std::size_t r = 0; r < m; ++r) {
        const double drGrid = static_cast<double>(std::min(r, m - r));
        for (std::size_t c = 0; c < m; ++c) {
            const double dcGrid = static_cast<double>(std::min(c, m - c));
            const double dist = std::hypot(drGrid, dcGrid) * step;
            spec[r * m + c] = sphericalRho(dist, phi);
        }
    }
    fft2d(spec, m, m, false);

    std::vector<double> lambda(m * m);
    for (std::size_t i = 0; i < m * m; ++i)
        lambda[i] = spec[i].real();
    return lambda;
}

void
clearFieldFactorCache()
{
    std::lock_guard<std::mutex> lock(factorCacheMutex);
    factorCache.clear();
}

std::size_t
fieldFactorCacheSize()
{
    std::lock_guard<std::mutex> lock(factorCacheMutex);
    return factorCache.size();
}

void
clearFieldSpectrumCache()
{
    std::lock_guard<std::mutex> lock(spectrumCacheMutex);
    spectrumCache.clear();
}

std::size_t
fieldSpectrumCacheSize()
{
    std::lock_guard<std::mutex> lock(spectrumCacheMutex);
    return spectrumCache.size();
}

void
clearFieldSampleCache()
{
    std::lock_guard<std::mutex> lock(sampleCacheMutex);
    sampleCache.clear();
    sampleCacheOrder.clear();
}

std::size_t
fieldSampleCacheSize()
{
    std::lock_guard<std::mutex> lock(sampleCacheMutex);
    return sampleCache.size();
}

FieldSample
generateField(std::size_t n, double phi, Rng &rng, FieldMethod method)
{
    FieldSample field;
    generateCached(n, phi, rng, method, field, nullptr);
    return field;
}

void
generateFieldPair(std::size_t n, double phi, Rng &rng, FieldMethod method,
                  FieldSample &fieldA, FieldSample &fieldB)
{
    generateCached(n, phi, rng, method, fieldA, &fieldB);
}

} // namespace varsched
