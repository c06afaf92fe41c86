/**
 * @file
 * Evaluation metrics of Section 6.6: throughput (MIPS), weighted
 * throughput (per-application IPC normalised to its reference IPC, so
 * low-intrinsic-IPC applications count equally), average frequency,
 * total power, and the energy-delay-squared product.
 *
 * ED^2 is computed on a per-instruction basis: energy/instruction
 * times (time/instruction)^2 = P / throughput^3 (up to constant
 * factors that cancel in the relative comparisons the paper reports).
 */

#ifndef VARSCHED_CORE_METRICS_HH
#define VARSCHED_CORE_METRICS_HH

#include <cstdint>
#include <vector>

#include "chip/sensors.hh"

namespace varsched
{

/** ED^2 per instruction, in J * s^2 / instr^3 scaled units. */
double ed2Of(double powerW, double mips);

/**
 * Weighted throughput exactly as the paper defines it (Section 6.6,
 * after Snavely-Tullsen): sum over threads of IPC normalised to the
 * application's IPC at reference conditions (Table 5). This gives
 * equal weight to every application regardless of its intrinsic IPC.
 *
 * Caveat (documented deviation): with per-core DVFS a memory-bound
 * thread's per-cycle IPC *rises* when its clock drops, so this metric
 * slightly credits downclocking such threads. weightedProgress() is
 * the time-based variant that does not.
 *
 * @param cond Settled chip state.
 * @param work Per-core workload (for the reference IPCs).
 */
double weightedThroughput(const ChipCondition &cond,
                          const std::vector<CoreWork> &work);

/**
 * Progress-based weighted throughput: instructions per second now
 * over instructions per second at reference conditions (IPC_ref at
 * 4 GHz). Invariant to the per-cycle artifact above.
 */
double weightedProgress(const ChipCondition &cond,
                        const std::vector<CoreWork> &work);

/** Average operating frequency of the active cores, Hz. */
double averageActiveFrequency(const ChipCondition &cond,
                              const std::vector<CoreWork> &work);

/** @p ticks consecutive ticks of settled chip power @p powerW. */
struct PowerRun
{
    double powerW = 0.0;
    std::uint64_t ticks = 0;

    bool operator==(const PowerRun &) const = default;
};

/**
 * Append @p ticks (> 0) ticks of power @p powerW to @p trace: the last
 * run grows when its power is bit-equal to @p powerW (not ==: +0 and
 * -0 stay apart, a NaN joins its own bits), else a new run starts. A
 * trace built only by this function is canonical: no empty run and no
 * two adjacent runs of the same bits, so two traces are equal exactly
 * when their per-tick samples are.
 */
void appendPowerRun(std::vector<PowerRun> &trace, double powerW,
                    std::uint64_t ticks);

/**
 * Robustness metric: fraction of ticks whose power exceeded the
 * budget by more than @p tolFraction — time the chip spent in cap
 * violation despite the power manager. One integer tick count over
 * the other, so the result does not depend on how the ticks are cut
 * into runs.
 *
 * @param powerTrace Settled chip power, W, as runs of ticks.
 * @param ptargetW Chip-wide budget.
 * @param tolFraction Overshoot tolerance (default 5%).
 */
double capViolationFraction(const std::vector<PowerRun> &powerTrace,
                            double ptargetW,
                            double tolFraction = 0.05);

} // namespace varsched

#endif // VARSCHED_CORE_METRICS_HH
