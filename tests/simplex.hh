/**
 * @file
 * Two-phase primal simplex solver for small dense linear programs.
 *
 * The paper (Section 4.3.1) solves LinOpt's LP with a general simplex.
 * The managers no longer do: LinOpt's LP is a continuous knapsack and
 * the max-min LP a water-filling problem, both solved in closed form
 * (core/linopt.hh, core/parallel.hh), so no run calls this solver and
 * it lives beside the tests. It has two uses: the oracle the closed
 * forms are tested against (tests/lp_oracle.hh), and Fig 15's timing
 * of the paper's own method. Problems are tiny (<= 21 variables, ~41
 * constraints), so a dense tableau with Bland's anti-cycling rule is
 * both simple and fast.
 */

#ifndef VARSCHED_TESTS_SIMPLEX_HH
#define VARSCHED_TESTS_SIMPLEX_HH

#include <cstddef>
#include <vector>

namespace varsched
{

/**
 * A linear program in canonical inequality form:
 *   maximise  cᵀx
 *   subject to  A·x <= b,  x >= 0.
 * Right-hand sides may be negative (phase 1 handles them).
 */
struct LinearProgram
{
    /** Objective coefficients c (one per variable). */
    std::vector<double> objective;
    /** Constraint matrix rows A[i]. Each must match objective size. */
    std::vector<std::vector<double>> rows;
    /** Right-hand sides b[i], one per row. */
    std::vector<double> rhs;

    /** Number of decision variables. */
    std::size_t numVars() const { return objective.size(); }
    /** Number of constraints. */
    std::size_t numRows() const { return rows.size(); }

    /** Append a constraint row·x <= bound. */
    void addRow(std::vector<double> row, double bound);
};

/** Outcome of a simplex solve. */
struct LpResult
{
    enum class Status { Optimal, Infeasible, Unbounded };

    Status status = Status::Infeasible;
    /** Optimal assignment (valid only when status == Optimal). */
    std::vector<double> x;
    /** Objective value at x. */
    double objective = 0.0;
    /** Simplex pivots performed across both phases. */
    std::size_t pivots = 0;
};

/**
 * Solve the given LP with the two-phase primal simplex method.
 *
 * Phase 1 constructs a feasible basis via artificial variables (only
 * for rows whose slack basis is infeasible); phase 2 optimises the
 * real objective. Bland's rule guarantees termination.
 */
LpResult solveSimplex(const LinearProgram &lp);

} // namespace varsched

#endif // VARSCHED_TESTS_SIMPLEX_HH
