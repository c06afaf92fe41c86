/**
 * @file
 * Multi-core trace-driven CMP model with a *shared* L2 (Table 4's
 * actual memory system: private L1s, one 8 MB L2 for all 20 cores).
 *
 * The profiles come from measureApplication, which gives each
 * application an L2 of its own. This model runs several CoreModels
 * over one shared L2, so that capacity and conflict interference
 * between co-scheduled applications is captured. It checks the
 * analytic profiles' no-contention assumption: for the paper's
 * workload mix, L2 interference is a second-order effect because the
 * hot working sets are L1-resident and the cold streams miss the L2
 * regardless. tests/test_cmp.cc asserts that bound against each
 * core's own stream run solo.
 *
 * Timing: cores advance in round-robin quanta of a few hundred
 * instructions, which approximates concurrent execution well at
 * L2-reuse granularity while staying fast. Core c's trace draws
 * rng.fork(1 + c), so a one-core CMP seeded like measureApplication
 * is that solo run, bit for bit.
 */

#ifndef VARSCHED_CMPSIM_CMP_HH
#define VARSCHED_CMPSIM_CMP_HH

#include <vector>

#include "cmpsim/cache.hh"
#include "cmpsim/core.hh"
#include "cmpsim/workload.hh"

namespace varsched
{

/**
 * N cores with private L1s over one shared L2.
 */
class CmpModel
{
  public:
    /**
     * @param apps One profile per core.
     * @param rng Seed stream; each core's trace forks from it.
     */
    CmpModel(const std::vector<const AppProfile *> &apps, Rng rng);

    // The cores point at l2_.
    CmpModel(const CmpModel &) = delete;
    CmpModel &operator=(const CmpModel &) = delete;

    /**
     * Run @p instrsPerCore instructions on every core (after a
     * shared warmup) and return per-core statistics.
     */
    std::vector<SimStats> run(std::uint64_t instrsPerCore);

    /** Shared L2 miss ratio observed so far. */
    double sharedL2MissRatio() const { return l2_.missRatio(); }

  private:
    Cache l2_;
    std::vector<CoreModel> cores_;
};

} // namespace varsched

#endif // VARSCHED_CMPSIM_CMP_HH
