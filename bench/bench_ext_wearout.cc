/**
 * @file
 * Section 8 extension: how the variation-aware policies affect CMP
 * wearout. Runs the same workloads under several scheduling policies
 * and reports the worst core's time-averaged aging rate and the
 * projected chip lifetime (reliability/wearout.hh).
 *
 * Expected shape: policies that concentrate load on the same (fast or
 * cool) cores age those cores faster; the thermal-aware migrating
 * scheduler evens the wear and extends projected lifetime, trading a
 * little throughput.
 */

#include <cstdio>

#include "bench/common.hh"

using namespace varsched;

int
main()
{
    bench::banner("Extension: policy impact on wearout (Section 8)",
                  "not a paper figure — the paper lists this as "
                  "planned work");

    BatchConfig batch = defaultBatch(6, 4);
    bench::describeBatch(batch);

    std::vector<SystemConfig> configs(4);
    configs[0].sched = SchedAlgo::Random;
    configs[1].sched = SchedAlgo::VarFAppIPC;
    configs[2].sched = SchedAlgo::VarPAppP;
    configs[3].sched = SchedAlgo::ThermalAware;
    for (auto &c : configs) {
        c.pm = PmKind::LinOpt;
        c.ptargetW = 30.0; // 8 threads -> 8/20 of 75 W
        c.durationMs = 300.0;
        c.osIntervalMs = 50.0; // migration opportunity
    }

    const std::size_t threads = 8;
    const auto r = bench::runBatch(batch, threads, configs);

    std::printf("%-14s %12s %14s %16s\n", "scheduler", "rel MIPS",
                "worst aging", "lifetime (yr)");
    const char *names[4] = {"Random", "VarF&AppIPC", "VarP&AppP",
                            "ThermalAware"};
    for (int k = 0; k < 4; ++k) {
        std::printf("%-14s %12.3f %14.3f %16.1f\n", names[k],
                    r.relative[k].mips.mean(),
                    r.absolute[k].worstAging.mean(),
                    r.absolute[k].lifetimeYears.mean());
    }
    std::printf("\n(aging rate 1.0 = nominal wear at 60 C / 1 V; the "
                "chip's MTTF is set by its\nfastest-aging core. "
                "Policies that pin load to a fixed core set — e.g. "
                "VarP&AppP's\nlowest-leakage cores — age that set "
                "hardest; schedulers whose core choice varies\nacross "
                "intervals spread the wear.)\n");
    return 0;
}
