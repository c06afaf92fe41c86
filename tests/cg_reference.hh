/**
 * @file
 * Conjugate-gradient reference solver for the tests. The thermal
 * models solve through a Cholesky factor cached at construction; CG on
 * the same matrix is the independent check that factor, its solves
 * and the block response built from it must agree with.
 */

#ifndef VARSCHED_TESTS_CG_REFERENCE_HH
#define VARSCHED_TESTS_CG_REFERENCE_HH

#include <cassert>
#include <cmath>
#include <vector>

#include "solver/matrix.hh"

namespace varsched
{

/**
 * Solve the symmetric positive-definite system A·x = b by conjugate
 * gradients.
 *
 * @param a System matrix (assumed SPD).
 * @param b Right-hand side.
 * @param tol Relative residual tolerance.
 * @param maxIter Iteration cap (0 means 10·n + 100).
 */
inline std::vector<double>
solveCG(const Matrix &a, const std::vector<double> &b, double tol = 1e-10,
        std::size_t maxIter = 0)
{
    assert(a.rows() == a.cols() && a.rows() == b.size());
    const std::size_t n = b.size();
    if (maxIter == 0)
        maxIter = 10 * n + 100;

    std::vector<double> x(n, 0.0), r = b, p = b, ap(n);
    double rr = 0.0;
    for (double v : r)
        rr += v * v;
    const double rr0 = rr > 0.0 ? rr : 1.0;

    for (std::size_t it = 0; it < maxIter && rr / rr0 > tol * tol; ++it) {
        for (std::size_t i = 0; i < n; ++i) {
            double s = 0.0;
            for (std::size_t j = 0; j < n; ++j)
                s += a(i, j) * p[j];
            ap[i] = s;
        }
        double pap = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            pap += p[i] * ap[i];
        if (std::abs(pap) < 1e-300)
            break;
        const double alpha = rr / pap;
        for (std::size_t i = 0; i < n; ++i) {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        double rrNew = 0.0;
        for (double v : r)
            rrNew += v * v;
        const double beta = rrNew / rr;
        for (std::size_t i = 0; i < n; ++i)
            p[i] = r[i] + beta * p[i];
        rr = rrNew;
    }
    return x;
}

} // namespace varsched

#endif // VARSCHED_TESTS_CG_REFERENCE_HH
