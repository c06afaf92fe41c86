/**
 * @file
 * Core wearout (aging) model — the paper's Section 8 lists
 * "understanding how our variation-aware algorithms affect CMP
 * wearout" as planned work; this module provides that analysis.
 *
 * The dominant aging mechanisms (electromigration, TDDB, NBTI) share
 * two accelerants the scheduling policies control indirectly:
 *
 *  - temperature, with an Arrhenius dependence
 *    exp(-Ea/kT) (EM/TDDB), and
 *  - supply voltage, with a power-law/exponential acceleration
 *    (TDDB field acceleration, NBTI overdrive).
 *
 * The model reports a dimensionless *aging rate*, normalised to 1 at
 * the (60 C, 1 V) reference: a core aging at rate 2 for a year
 * consumes two reference-years of lifetime. The system harness
 * integrates the rate over a run to get per-core consumed life; a
 * chip's effective MTTF is set by its *fastest-aging* core, so
 * policies that concentrate heat (e.g. always loading the same fast
 * cores) trade lifetime for throughput.
 */

#ifndef VARSCHED_RELIABILITY_WEAROUT_HH
#define VARSCHED_RELIABILITY_WEAROUT_HH

#include <cstddef>
#include <vector>

namespace varsched
{

/** Aging-model parameters. */
struct WearoutParams
{
    /** Arrhenius activation energy, eV (EM ~0.9, TDDB ~0.6-0.8). */
    double activationEnergyEv = 0.7;
    /** Voltage acceleration exponent (TDDB power-law gamma). */
    double voltageExponent = 12.0;
    /** Reference temperature, Celsius. */
    double refTempC = 60.0;
    /** Reference voltage, volts. */
    double refVdd = 1.0;
    /** Nominal lifetime at reference conditions, years. */
    double nominalLifetimeYears = 10.0;
};

/** Aging-rate evaluator and per-core damage accumulator. */
class WearoutModel
{
  public:
    explicit WearoutModel(const WearoutParams &params = {});

    /**
     * Instantaneous aging rate at (tempC, v), normalised to 1 at the
     * reference corner. Idle (power-gated) cores age at the ambient
     * rate with zero voltage stress; pass v = 0 for them.
     */
    double agingRate(double tempC, double v) const;

    /** Parameters in use. */
    const WearoutParams &params() const { return params_; }

  private:
    WearoutParams params_;
};

/** Accumulates per-core consumed lifetime across a run. */
class WearoutTracker
{
  public:
    /** @param numCores Cores to track. */
    WearoutTracker(const WearoutModel &model, std::size_t numCores);

    /**
     * Account @p dtMs of operation.
     *
     * @param coreTempC Settled per-core temperatures.
     * @param coreVdd Per-core supply (0 for power-gated cores).
     */
    void accumulate(const std::vector<double> &coreTempC,
                    const std::vector<double> &coreVdd, double dtMs);

    /**
     * @p ticks accumulate() calls at the operating point of the last
     * accumulate() call, which must exist: the same per-core adds in
     * the same order, bit for bit.
     */
    void repeat(double dtMs, std::size_t ticks = 1);

    /**
     * Consumed reference-lifetime per core, as a fraction of the
     * tracked wall-time (i.e. the time-averaged aging rate).
     */
    std::vector<double> averageRates() const;

    /** Worst core's average aging rate (sets chip MTTF). */
    double worstRate() const;

    /**
     * Projected chip lifetime in years: nominal lifetime divided by
     * the worst core's average aging rate.
     */
    double projectedLifetimeYears() const;

  private:
    const WearoutModel *model_;
    std::vector<double> damageMs_; ///< rate-weighted milliseconds
    double elapsedMs_ = 0.0;
    std::vector<double> lastRate_; ///< Per core, of the last accumulate.
};

} // namespace varsched

#endif // VARSCHED_RELIABILITY_WEAROUT_HH
