#include "tests/simplex.hh"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

namespace varsched
{

void
LinearProgram::addRow(std::vector<double> row, double bound)
{
    assert(row.size() == objective.size());
    rows.push_back(std::move(row));
    rhs.push_back(bound);
}

namespace
{

constexpr double kEps = 1e-9;

/**
 * Dense simplex tableau. Columns: n structural + m slack + (up to m)
 * artificial variables, then the RHS. One row per constraint plus an
 * objective row at the bottom.
 */
class Tableau
{
  public:
    explicit Tableau(const LinearProgram &lp)
        : n_(lp.numVars()), m_(lp.numRows())
    {
        // Normalise rows so every RHS is non-negative; rows flipped
        // from <= to >= get a surplus (-1) slack and need an artificial.
        artCol_.assign(m_, SIZE_MAX);
        for (std::size_t i = 0; i < m_; ++i) {
            if (lp.rhs[i] < 0.0)
                artCol_[i] = n_ + m_ + numArt_++;
        }

        cols_ = n_ + m_ + numArt_ + 1; // +1 for RHS
        a_.assign((m_ + 1) * cols_, 0.0);
        basis_.assign(m_, 0);

        for (std::size_t i = 0; i < m_; ++i) {
            const bool flipped = artCol_[i] != SIZE_MAX;
            const double sign = flipped ? -1.0 : 1.0;
            for (std::size_t j = 0; j < n_; ++j)
                at(i, j) = sign * lp.rows[i][j];
            at(i, n_ + i) = sign;
            at(i, cols_ - 1) = sign * lp.rhs[i];
            if (flipped)
                at(i, artCol_[i]) = 1.0;
            basis_[i] = flipped ? artCol_[i] : n_ + i;
        }
    }

    double &at(std::size_t r, std::size_t c) { return a_[r * cols_ + c]; }
    double at(std::size_t r, std::size_t c) const
    { return a_[r * cols_ + c]; }

    std::size_t rhsCol() const { return cols_ - 1; }

    /** Load phase-1 objective: minimise sum of artificials. */
    void
    setPhase1Objective()
    {
        for (std::size_t j = 0; j < cols_; ++j)
            at(m_, j) = 0.0;
        // maximise -(sum of artificials): objective row holds -c with
        // reduced costs maintained by pivoting; start from c_art = -1.
        for (std::size_t i = 0; i < m_; ++i) {
            if (artCol_[i] != SIZE_MAX)
                at(m_, artCol_[i]) = 1.0; // row stores -objective coeffs
        }
        // Price out basic artificials so reduced costs start consistent.
        for (std::size_t i = 0; i < m_; ++i) {
            if (basis_[i] == artCol_[i] && artCol_[i] != SIZE_MAX) {
                for (std::size_t j = 0; j < cols_; ++j)
                    at(m_, j) -= at(i, j);
            }
        }
    }

    /** Load phase-2 objective (maximise cᵀx) and price out the basis. */
    void
    setPhase2Objective(const LinearProgram &lp)
    {
        for (std::size_t j = 0; j < cols_; ++j)
            at(m_, j) = 0.0;
        for (std::size_t j = 0; j < n_; ++j)
            at(m_, j) = -lp.objective[j];
        for (std::size_t i = 0; i < m_; ++i) {
            const std::size_t b = basis_[i];
            const double coeff = at(m_, b);
            if (std::abs(coeff) > 0.0) {
                for (std::size_t j = 0; j < cols_; ++j)
                    at(m_, j) -= coeff * at(i, j);
            }
        }
    }

    /**
     * Run simplex pivots until optimal or unbounded.
     *
     * @param allowedCols One past the last eligible entering column
     *        (phase 2 excludes artificial columns).
     * @retval true when an optimum was reached; false on unboundedness.
     */
    bool
    optimize(std::size_t allowedCols, std::size_t &pivots)
    {
        for (;;) {
            // Bland's rule: entering column = lowest index with a
            // negative reduced cost.
            std::size_t enter = SIZE_MAX;
            for (std::size_t j = 0; j < allowedCols; ++j) {
                if (at(m_, j) < -kEps) {
                    enter = j;
                    break;
                }
            }
            if (enter == SIZE_MAX)
                return true;

            // Ratio test; ties broken by lowest basis index (Bland).
            std::size_t leave = SIZE_MAX;
            double bestRatio = std::numeric_limits<double>::infinity();
            for (std::size_t i = 0; i < m_; ++i) {
                const double piv = at(i, enter);
                if (piv > kEps) {
                    const double ratio = at(i, rhsCol()) / piv;
                    if (ratio < bestRatio - kEps ||
                        (ratio < bestRatio + kEps && leave != SIZE_MAX &&
                         basis_[i] < basis_[leave])) {
                        bestRatio = ratio;
                        leave = i;
                    }
                }
            }
            if (leave == SIZE_MAX)
                return false; // unbounded in the entering direction

            pivot(leave, enter);
            ++pivots;
        }
    }

    /** Gauss-Jordan pivot on (row, col). */
    void
    pivot(std::size_t row, std::size_t col)
    {
        const double p = at(row, col);
        assert(std::abs(p) > kEps);
        for (std::size_t j = 0; j < cols_; ++j)
            at(row, j) /= p;
        for (std::size_t i = 0; i <= m_; ++i) {
            if (i == row)
                continue;
            const double factor = at(i, col);
            if (std::abs(factor) < 1e-300)
                continue;
            for (std::size_t j = 0; j < cols_; ++j)
                at(i, j) -= factor * at(row, j);
        }
        basis_[row] = col;
    }

    /** Current phase-1 infeasibility (sum of artificial values). */
    double
    artificialSum() const
    {
        double s = 0.0;
        for (std::size_t i = 0; i < m_; ++i) {
            if (artCol_[i] != SIZE_MAX && basis_[i] == artCol_[i])
                s += at(i, rhsCol());
        }
        return s;
    }

    /**
     * Force remaining artificial variables out of the basis (possible
     * when they sit at zero level); rows with no eligible pivot are
     * redundant constraints and stay harmless.
     */
    void
    evictArtificials(std::size_t structuralCols, std::size_t &pivots)
    {
        for (std::size_t i = 0; i < m_; ++i) {
            if (artCol_[i] == SIZE_MAX || basis_[i] != artCol_[i])
                continue;
            for (std::size_t j = 0; j < structuralCols; ++j) {
                if (std::abs(at(i, j)) > kEps) {
                    pivot(i, j);
                    ++pivots;
                    break;
                }
            }
        }
    }

    /** Extract structural-variable values from the basis. */
    std::vector<double>
    solution() const
    {
        std::vector<double> x(n_, 0.0);
        for (std::size_t i = 0; i < m_; ++i) {
            if (basis_[i] < n_)
                x[basis_[i]] = at(i, rhsCol());
        }
        return x;
    }

    std::size_t numArtificials() const { return numArt_; }
    std::size_t structuralAndSlackCols() const { return n_ + m_; }

  private:
    std::size_t n_;
    std::size_t m_;
    std::size_t numArt_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> a_;
    std::vector<std::size_t> basis_;
    std::vector<std::size_t> artCol_;
};

} // namespace

LpResult
solveSimplex(const LinearProgram &lp)
{
    LpResult result;
    if (lp.numVars() == 0) {
        result.status = LpResult::Status::Optimal;
        return result;
    }

    Tableau t(lp);

    if (t.numArtificials() > 0) {
        t.setPhase1Objective();
        // Phase 1 is bounded below by zero; unbounded cannot occur,
        // but guard anyway.
        if (!t.optimize(t.structuralAndSlackCols() + t.numArtificials(),
                        result.pivots) ||
            t.artificialSum() > 1e-7) {
            result.status = LpResult::Status::Infeasible;
            return result;
        }
        t.evictArtificials(t.structuralAndSlackCols(), result.pivots);
    }

    t.setPhase2Objective(lp);
    if (!t.optimize(t.structuralAndSlackCols(), result.pivots)) {
        result.status = LpResult::Status::Unbounded;
        return result;
    }

    result.status = LpResult::Status::Optimal;
    result.x = t.solution();
    for (std::size_t j = 0; j < lp.numVars(); ++j)
        result.objective += lp.objective[j] * result.x[j];
    return result;
}

} // namespace varsched
