/**
 * @file
 * Extension: a million-tick horizon (~17 simulated minutes at the
 * 1 ms tick) of phased synthetic service traffic — the regime the
 * phase-sampled engine exists for. Exact evaluation settles the chip
 * a million times; sampling freezes each multi-second traffic phase
 * and extrapolates it, re-settling only at sampled epochs and phase
 * flips, so the run finishes in seconds with a bounded, *reported*
 * error (the printed est_err).
 *
 * Horizon override: VARSCHED_LONGHORIZON_MS (default 1,000,000 ms).
 * Sampling opt-out: VARSCHED_PHASE_SAMPLING=0 (be prepared to wait).
 * Guard: VARSCHED_BENCH_COMPARE=1 re-runs the exact reference and
 * aborts on divergence beyond the 1% default budget.
 */

#include <cstdio>

#include "bench/common.hh"

using namespace varsched;

int
main()
{
    bench::banner("Extension: million-tick phased-traffic horizon "
                  "under the phase-sampled engine",
                  "Pac-Sim-style sampling: order-of-magnitude tick-"
                  "loop speedup at bounded error (PAPERS.md)");

    const std::size_t horizonMs =
        envSize("VARSCHED_LONGHORIZON_MS", 1'000'000);
    BatchConfig batch = defaultBatch(1, 1);
    batch.workloadPool = &trafficApplications();
    bench::describeBatch(batch);

    SystemConfig config;
    config.sched = SchedAlgo::VarFAppIPC;
    config.pm = PmKind::LinOpt;
    config.ptargetW = 75.0 * 8.0 / 20.0;
    config.durationMs = static_cast<double>(horizonMs);
    config.phaseSampling.enabled =
        envFlag("VARSCHED_PHASE_SAMPLING", true);
    // Traffic phases dwell for thousands of ticks, so the basis sees
    // many settles per phase and the controller's limit cycle is a
    // small fraction of the signal: a heavier blend tracks the slow
    // within-phase drift the horizon accumulates (ED^2 is the
    // sensitive metric) instead of smoothing it away.
    config.phaseSampling.basisBlend = 0.5;

    std::printf("horizon: %zu ms (%zu ticks), sampling %s\n\n",
                horizonMs, horizonMs, // tickMs = 1
                config.phaseSampling.enabled ? "on" : "off");

    const auto r = bench::runBatch(batch, 8, {config});

    const std::uint64_t total = r.exactTicks + r.sampledTicks;
    std::printf("avg MIPS            %12.1f\n",
                r.absolute[0].mips.mean());
    std::printf("avg power (W)       %12.2f\n",
                r.absolute[0].powerW.mean());
    std::printf("power deviation     %12.2f %%\n",
                r.absolute[0].deviation.mean() * 100.0);
    std::printf("exact ticks         %12llu\n",
                static_cast<unsigned long long>(r.exactTicks));
    std::printf("sampled ticks       %12llu (%.1f %%)\n",
                static_cast<unsigned long long>(r.sampledTicks),
                total > 0
                    ? 100.0 * static_cast<double>(r.sampledTicks) /
                          static_cast<double>(total)
                    : 0.0);
    std::printf("phase invalidations %12llu\n",
                static_cast<unsigned long long>(r.phaseInvalidations));
    std::printf("est_err             %12.5f\n", r.estErrMax);
    return 0;
}
