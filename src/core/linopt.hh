/**
 * @file
 * LinOpt: linear-programming power management (Section 4.3.1).
 *
 * Per active core i, the controller knows:
 *  - the manufacturer's (voltage, frequency) table, whose near-linear
 *    f_i(v) it fits as slope/intercept;
 *  - the thread's IPC from performance counters (assumed independent
 *    of frequency), giving the throughput objective coefficient
 *    a_i = ipc_i * slope_i; and
 *  - the core's measured power at three voltages (Vlow, Vmid, Vhigh),
 *    least-squares fitted as p_i(v) = b_i v + c_i (Fig 1).
 *
 * It then maximises sum(a_i v_i) subject to sum(p_i) <= Ptarget,
 * p_i <= Pcoremax and Vlow <= v_i <= Vhigh. The paper solves that LP
 * with a general simplex. It is a continuous knapsack, which
 * Dantzig's ratio rule solves exactly: raise the cores in falling
 * a_i/b_i order until the budget binds. LinOpt rounds each v_i down
 * to a legal level, trims the result back under the *monitored*
 * powers and greedily refills any remaining budget by the best
 * marginal MIPS/W step.
 */

#ifndef VARSCHED_CORE_LINOPT_HH
#define VARSCHED_CORE_LINOPT_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "core/pmalgo.hh"

namespace varsched
{

/** LinOpt tuning. */
struct LinOptConfig
{
    /**
     * Number of voltage measurement points for the power fit
     * (Section 5.2 allows 3 or, at the very least, 2).
     */
    int powerSamplePoints = 3;
    /** Enable the greedy refill pass after rounding down. */
    bool greedyRefill = true;
    /** What to maximise (Fig 11: Throughput; Fig 13: Weighted). */
    PmObjective objective = PmObjective::Throughput;
};

/**
 * The linear model of one snapshot that LinOpt and LinOptMaxMin
 * optimise, over x_i = v_i - Vlow:
 *
 *    objective_i = a_i x_i + d_i,   power_i = b_i x_i + b_i Vlow + c_i,
 *    sum b_i x_i <= budget,   b_i x_i <= cap_i,   0 <= x_i <= span.
 */
struct LinOptFit
{
    std::vector<double> a;   ///< Objective per volt (MIPS/V, or weighted).
    std::vector<double> d;   ///< Objective at Vlow.
    std::vector<double> b;   ///< Power slope, W/V.
    std::vector<double> cap; ///< Pcoremax - c_i - b_i Vlow.
    double budget = 0.0;     ///< Ptarget - Puncore - sum(b_i Vlow + c_i).
    double span = 0.0;       ///< Vhigh - Vlow.
};

/** Fit @p snap into @p fit (power over 2 or 3 sample points). */
void fitLinOpt(const ChipSnapshot &snap, int powerSamplePoints,
               PmObjective objective, LinOptFit &fit);

/**
 * Core i's range [lo, hi] under its cap row and 0 <= x_i <= span (a
 * b_i < 0 cap row bounds x_i from below), and the end @p start the
 * closed forms begin at: the one using the least budget, ties
 * (b_i = 0) broken towards the better objective. Only a core with
 * a_i b_i > 0 then trades budget for objective. False when empty.
 */
bool coreRange(const LinOptFit &fit, std::size_t i, double &lo,
               double &hi, double &start);

/** Sort keys of the closed forms, (key, core index); reused scratch. */
using LpOrder = std::vector<std::pair<double, std::size_t>>;

/**
 * Maximise sum a_i x_i over @p fit's rows into @p x by Dantzig's
 * ratio rule: from coreRange()'s starts, move the trading cores in
 * falling a_i/b_i order, each across its range, until the budget
 * binds. False when infeasible — with every b_i > 0, exactly when
 * budget < 0 or some cap_i < 0.
 */
bool solveRatioRule(const LinOptFit &fit, std::vector<double> &x,
                    LpOrder &order);

/** Highest level whose voltage is at most @p v (1 nV slack). */
int roundDownLevel(const std::vector<double> &voltage, double v);

/** Diagnostics of the last LinOpt invocation (for benchmarks / tests). */
struct LinOptDiag
{
    /** False when the budget is unreachable even at Vlow. */
    bool feasible = true;
    /** Cores the ratio rule raised above Vlow. */
    std::size_t pivots = 0;
    /** Continuous LP voltages before discretisation. */
    std::vector<double> continuousV;
};

/** The LinOpt power manager. */
class LinOptManager : public PowerManager
{
  public:
    explicit LinOptManager(const LinOptConfig &config = {});

    std::string name() const override { return "LinOpt"; }
    const std::vector<int> &selectLevels(const ChipSnapshot &snap) override;

    /** Diagnostics of the most recent selectLevels call. */
    const LinOptDiag &lastDiag() const { return diag_; }

  private:
    LinOptConfig config_;
    LinOptDiag diag_;
    // Per-call scratch, kept so a steady run of decisions allocates
    // nothing.
    LinOptFit fit_;
    std::vector<double> x_;
    LpOrder order_;
};

} // namespace varsched

#endif // VARSCHED_CORE_LINOPT_HH
