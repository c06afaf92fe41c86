#include "solver/matrix.hh"

#include "runtime/simd.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace varsched
{

namespace
{

/**
 * Dot product of two contiguous spans, register-blocked: four
 * independent accumulators (vector lanes on the explicit-SIMD path)
 * hide the FP-add latency. simd::dot's scalar fallback is this exact
 * four-accumulator loop, so the forced-scalar path is unchanged.
 */
double
dotBlocked(const double *a, const double *b, std::size_t n)
{
    return simd::dot(a, b, n);
}

} // namespace

bool
cholesky(const Matrix &a, Matrix &l)
{
    assert(a.rows() == a.cols());
    const std::size_t n = a.rows();
    l = Matrix(n, n);

    // Jitter ladder: retry with a progressively larger diagonal boost
    // when near-singular covariance matrices (e.g. fully correlated
    // grid points) defeat exact factorisation.
    //
    // The update term sum_k l(i,k)·l(j,k) runs over two *rows* of L —
    // contiguous in the row-major store — so the inner reduction is
    // the register-blocked dot above.
    for (double jitter : {0.0, 1e-12, 1e-9, 1e-6}) {
        bool ok = true;
        for (std::size_t i = 0; i < n && ok; ++i) {
            const double *li = l.row(i);
            for (std::size_t j = 0; j <= i; ++j) {
                const double *lj = l.row(j);
                const double sum = a(i, j) + (i == j ? jitter : 0.0) -
                    dotBlocked(li, lj, j);
                if (i == j) {
                    if (sum <= 0.0) {
                        ok = false;
                        break;
                    }
                    l(i, i) = std::sqrt(sum);
                } else {
                    l(i, j) = sum / lj[j];
                }
            }
        }
        if (ok)
            return true;
    }
    return false;
}

std::vector<double>
lowerMultiply(const Matrix &l, const std::vector<double> &x)
{
    assert(l.cols() == x.size());
    std::vector<double> y(l.rows(), 0.0);
    const double *xd = x.data();
    for (std::size_t i = 0; i < l.rows(); ++i) {
        const std::size_t len = std::min(i + 1, l.cols());
        y[i] = dotBlocked(l.row(i), xd, len);
    }
    return y;
}

std::vector<double>
choleskySolve(const Matrix &l, const std::vector<double> &b)
{
    assert(l.rows() == l.cols() && l.rows() == b.size());
    const std::size_t n = b.size();

    // Forward substitution: L·y = b. Row i of L is contiguous, so the
    // partial-row reduction is a blocked dot.
    std::vector<double> y(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double *li = l.row(i);
        y[i] = (b[i] - dotBlocked(li, y.data(), i)) / li[i];
    }

    // Backward substitution: Lᵀ·x = y, recast in axpy form so every
    // inner loop still walks a contiguous *row* of L instead of a
    // column stride: once x[i] is known, its contribution is
    // subtracted from all earlier equations at once.
    std::vector<double> x(n);
    for (std::size_t i = n; i-- > 0;) {
        const double *li = l.row(i);
        const double xi = y[i] / li[i];
        x[i] = xi;
        simd::axpyNeg(y.data(), xi, li, i);
    }
    return x;
}

std::pair<double, double>
fitLine(const std::vector<double> &x, const std::vector<double> &y)
{
    assert(x.size() == y.size());
    return fitLine(x.data(), y.data(), x.size());
}

std::pair<double, double>
fitLine(const double *x, const double *y, std::size_t n)
{
    if (n == 0)
        return {0.0, 0.0};
    if (n == 1)
        return {0.0, y[0]};

    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sx += x[i];
        sy += y[i];
        sxx += x[i] * x[i];
        sxy += x[i] * y[i];
    }
    const double nd = static_cast<double>(n);
    const double denom = nd * sxx - sx * sx;
    if (std::abs(denom) < 1e-30)
        return {0.0, sy / nd};
    const double b = (nd * sxy - sx * sy) / denom;
    const double c = (sy - b * sx) / nd;
    return {b, c};
}

} // namespace varsched
