/**
 * @file
 * Parallel-application support — the paper's Section 8 lists
 * "analyzing the impact of the algorithms on parallel applications"
 * as planned work; this module provides it.
 *
 * A barrier-synchronised parallel application advances at the pace of
 * its *slowest* worker (Balakrishnan et al.: heterogeneity destabilises
 * parallel workloads). Throughput-sum optimisers like LinOpt are the
 * wrong objective for such workloads: they starve workers on slow
 * cores because boosting them buys little *sum* throughput, precisely
 * the workers that gate the barrier.
 *
 * LinOptMaxMin keeps the paper's machinery — linear frequency and
 * power fits (LinOptFit, core/linopt.hh) and sensor-guided
 * discretisation — but optimises the max-min objective instead:
 *
 *    maximise t
 *    s.t.     t <= a_i x_i + d_i                for every worker i
 *             sum b_i x_i <= budget,  b_i x_i <= cap_i,  0 <= x_i <= span
 *
 * Water-filling solves this LP: at pace t, worker i needs
 * x_i(t) = clamp((t - d_i)/a_i, 0, u_i), and their budget rises
 * monotonically with t, so one pass over the sorted breakpoints d_i
 * finds the largest t the budget allows.
 */

#ifndef VARSCHED_CORE_PARALLEL_HH
#define VARSCHED_CORE_PARALLEL_HH

#include "core/linopt.hh"
#include "core/pmalgo.hh"

namespace varsched
{

/**
 * Barrier-limited speed of an operating point: the minimum per-worker
 * MIPS across the active cores (the whole gang moves at that pace).
 */
double barrierSpeed(const ChipSnapshot &snap,
                    const std::vector<int> &levels);

/**
 * Solve the max-min LP over @p fit by water-filling into @p x and the
 * optimal t, @p pace. From coreRange()'s starts, a trading worker
 * (a_i b_i > 0) moves once t passes its knee, the pace at its start;
 * x is the least-budget optimum. False when infeasible: a range is
 * empty, the starts overrun the budget, or no t >= 0 is reachable.
 */
bool solveWaterFill(const LinOptFit &fit, std::vector<double> &x,
                    double &pace, LpOrder &order);

/** Max-min variant of LinOpt for barrier-synchronised workloads. */
class LinOptMaxMinManager : public PowerManager
{
  public:
    std::string name() const override { return "LinOptMaxMin"; }
    const std::vector<int> &selectLevels(const ChipSnapshot &snap) override;

  private:
    // Per-call scratch, kept so a steady run of decisions allocates
    // nothing.
    LinOptFit fit_;
    std::vector<double> x_;
    LpOrder order_;
};

} // namespace varsched

#endif // VARSCHED_CORE_PARALLEL_HH
