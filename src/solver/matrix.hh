/**
 * @file
 * Minimal dense linear algebra: a row-major matrix, Cholesky
 * factorisation (used for exact Gaussian-field generation on small
 * grids), triangular solves, and a least-squares line fit (used by
 * LinOpt's power linearisation, Fig 1 of the paper).
 */

#ifndef VARSCHED_SOLVER_MATRIX_HH
#define VARSCHED_SOLVER_MATRIX_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace varsched
{

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    Matrix() = default;

    /** rows x cols matrix, zero-initialised. */
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
    {}

    double &operator()(std::size_t r, std::size_t c)
    { return data_[r * cols_ + c]; }
    double operator()(std::size_t r, std::size_t c) const
    { return data_[r * cols_ + c]; }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /**
     * Raw pointer to row @p r (contiguous, cols() doubles). The
     * register-blocked kernels below walk rows through these instead
     * of per-element operator() so the inner loops are contiguous
     * loads the compiler can keep in registers.
     */
    double *row(std::size_t r) { return data_.data() + r * cols_; }
    const double *row(std::size_t r) const
    { return data_.data() + r * cols_; }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/**
 * Cholesky factorisation A = L·Lᵀ of a symmetric positive-definite
 * matrix; only the lower triangle of @p a is read.
 *
 * @param a Symmetric positive-definite input.
 * @param l Output lower-triangular factor (resized).
 * @retval true on success; false if the matrix is not positive
 *         definite (a tiny diagonal jitter is attempted first).
 */
bool cholesky(const Matrix &a, Matrix &l);

/** y = L·x for lower-triangular L. */
std::vector<double> lowerMultiply(const Matrix &l,
                                  const std::vector<double> &x);

/**
 * Solve A·x = b given the Cholesky factor L of A (A = L·Lᵀ) by a
 * forward and a backward triangular substitution — O(n²) per
 * right-hand side versus O(n²) *per iteration* for CG, which is why
 * the thermal models factor once at construction and call this every
 * tick.
 */
std::vector<double> choleskySolve(const Matrix &l,
                                  const std::vector<double> &b);

/**
 * Least-squares fit of y ≈ b·x + c.
 *
 * @return {b, c}. With fewer than two points, returns {0, y0-or-0}.
 */
std::pair<double, double> fitLine(const std::vector<double> &x,
                                  const std::vector<double> &y);

/** fitLine() over the first @p n points of two plain arrays. */
std::pair<double, double> fitLine(const double *x, const double *y,
                                  std::size_t n);

} // namespace varsched

#endif // VARSCHED_SOLVER_MATRIX_HH
