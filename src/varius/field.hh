/**
 * @file
 * Zero-mean, unit-variance 2D Gaussian random fields with spherical
 * spatial correlation — the systematic-variation generator of the
 * VARIUS model. Replaces the geoR/R pipeline the paper used.
 *
 * Two generation back-ends are provided:
 *  - exact dense Cholesky of the grid covariance (small grids; used by
 *    tests as ground truth), and
 *  - circulant embedding + FFT (large grids; the default — the paper
 *    uses 1M points per die, which only the FFT path can reach).
 */

#ifndef VARSCHED_VARIUS_FIELD_HH
#define VARSCHED_VARIUS_FIELD_HH

#include <cstddef>
#include <string>
#include <vector>

#include "solver/rng.hh"

namespace varsched
{

/**
 * A sampled n x n realisation of a random field over the unit square,
 * with bilinear interpolation for off-grid queries.
 */
class FieldSample
{
  public:
    FieldSample() = default;

    /** @param n Grid points per side. @param values Row-major n*n. */
    FieldSample(std::size_t n, std::vector<double> values);

    /** Grid points per side. */
    std::size_t size() const { return n_; }

    /** Raw value at grid coordinates (row, col). */
    double at(std::size_t row, std::size_t col) const
    { return values_[row * n_ + col]; }

    /**
     * Bilinearly interpolated value at normalised die coordinates.
     * @param x In [0, 1], left to right.
     * @param y In [0, 1], bottom to top.
     */
    double sample(double x, double y) const;

    /** Mean of all grid values. */
    double mean() const;
    /** Sample standard deviation of all grid values. */
    double stddev() const;

    /**
     * Write the field as a binary PGM greyscale image (darker =
     * lower value), the visual of the paper's Fig 3 map overlay.
     *
     * @param path Output file.
     * @retval true on success.
     */
    bool writePgm(const std::string &path) const;

  private:
    std::size_t n_ = 0;
    std::vector<double> values_;
};

/** Which generation back-end to use. */
enum class FieldMethod { Cholesky, CirculantFFT };

/**
 * Generate one realisation of the spherically-correlated field.
 *
 * @param n Grid points per side of the die.
 * @param phi Correlation range as a fraction of the die width.
 * @param rng Seeded generator; each die forks its own stream.
 * @param method Back-end; Cholesky is O(n^6) in memory/time and only
 *        sensible for n <= ~48.
 * @return Unit-variance sample (exact for both back-ends).
 */
FieldSample generateField(std::size_t n, double phi, Rng &rng,
                          FieldMethod method = FieldMethod::CirculantFFT);

/**
 * Generate two *independent* realisations in one call — the common
 * case (every die needs a Vth and a Leff field).
 *
 * For the circulant back-end the pair costs one synthesis: the real
 * and imaginary planes of the coloured-noise inverse transform are
 * two independent unit-variance fields with the target covariance
 * (Dietrich & Newsam), so @p fieldA takes Re and @p fieldB takes Im.
 * For the Cholesky back-end this is exactly two sequential
 * generateField() draws (bit-identical stream).
 */
void generateFieldPair(std::size_t n, double phi, Rng &rng,
                       FieldMethod method, FieldSample &fieldA,
                       FieldSample &fieldB);

/**
 * Circulant torus side for an n x n grid: the smallest power of two m
 * with m >= 2(n-1) (every cropped lag is its own minimum image) and
 * m >= 2*ceil(phi/step) (the compact correlogram misses its periodic
 * images, so every eigenvalue is >= 0: Dietrich & Newsam).
 */
std::size_t circulantEmbeddingSize(std::size_t n, double phi);

/** The m*m embedding eigenvalues; their mean is the point variance. */
std::vector<double> circulantEigenvalues(std::size_t n, double phi);

/**
 * The Cholesky back-end caches grid-covariance factors keyed by
 * (n, phi): the covariance is die-independent, so a 200-die batch
 * factors once. The cache is thread-safe and only ever holds a few
 * distinct grid geometries; these hooks exist for tests and for
 * long-lived processes that sweep many (n, phi) pairs.
 */
void clearFieldFactorCache();
/** Number of (n, phi) factors currently cached. */
std::size_t fieldFactorCacheSize();

/**
 * The circulant back-end likewise caches the die-independent part of
 * the synthesis — embedding size and square-root eigenvalue
 * amplitudes — keyed by (n, phi), so the per-die
 * cost is one noise colouring plus one inverse FFT (the covariance
 * fill and the forward FFT run once per batch).
 */
void clearFieldSpectrumCache();
/** Number of (n, phi) circulant spectra currently cached. */
std::size_t fieldSpectrumCacheSize();

/**
 * generateField additionally memoises whole *samples*, keyed by the
 * generator's complete state (Rng::captureState) plus (n, phi,
 * method). A die is a pure function of (params, seed), so when a
 * bench re-manufactures the same dies — e.g. one runBatch per point
 * of a thread sweep over an identical batch — the generation replays
 * from the cache bit-identically, including the post-generation RNG
 * state, instead of redoing the FFT synthesis. Bounded FIFO (a few
 * dozen fields) so paper-scale batches of distinct dies stream
 * through without accumulating memory. Thread-safe. Every lookup
 * counts into the global metrics registry as
 * `varius.field_cache.hits` or `varius.field_cache.misses`;
 * fieldSampleCacheSize() reports how many samples it holds.
 */
void clearFieldSampleCache();
/** Number of field samples currently cached. */
std::size_t fieldSampleCacheSize();

} // namespace varsched

#endif // VARSCHED_VARIUS_FIELD_HH
