/**
 * @file
 * The simplex form of the two LPs the power managers solve in closed
 * form, built from the same LinOptFit: the oracle of the
 * LinOptClosedFormContract suite. Rows come in the order the managers
 * once built them for the simplex, so the oracle is the pre-closed-
 * form decision path.
 */

#ifndef VARSCHED_TESTS_LP_ORACLE_HH
#define VARSCHED_TESTS_LP_ORACLE_HH

#include <vector>

#include "core/linopt.hh"
#include "tests/simplex.hh"

namespace varsched
{

/**
 * LinOpt's LP: maximise sum a_i x_i subject to the budget row, then
 * per core its cap row and x_i <= span.
 */
inline LinearProgram
linOptProgram(const LinOptFit &fit)
{
    const std::size_t n = fit.a.size();
    LinearProgram lp;
    lp.objective = fit.a;
    lp.addRow(fit.b, fit.budget);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> row(n, 0.0);
        row[i] = fit.b[i];
        lp.addRow(row, fit.cap[i]);
        row[i] = 1.0;
        lp.addRow(row, fit.span);
    }
    return lp;
}

/**
 * The max-min LP over (x_1..x_n, t): maximise t subject to
 * t - a_i x_i <= d_i per worker, the budget row, then per core its
 * cap row and x_i <= span.
 */
inline LinearProgram
maxMinProgram(const LinOptFit &fit)
{
    const std::size_t n = fit.a.size();
    LinearProgram lp;
    lp.objective.assign(n + 1, 0.0);
    lp.objective[n] = 1.0;
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> row(n + 1, 0.0);
        row[i] = -fit.a[i];
        row[n] = 1.0;
        lp.addRow(row, fit.d[i]);
    }
    std::vector<double> budgetRow(n + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        budgetRow[i] = fit.b[i];
    lp.addRow(budgetRow, fit.budget);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> row(n + 1, 0.0);
        row[i] = fit.b[i];
        lp.addRow(row, fit.cap[i]);
        row[i] = 1.0;
        lp.addRow(row, fit.span);
    }
    return lp;
}

} // namespace varsched

#endif // VARSCHED_TESTS_LP_ORACLE_HH
