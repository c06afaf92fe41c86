/**
 * @file
 * Section 7.4 (text claim): at full occupancy (20 threads), running
 * every core at its own maximum frequency (NUniFreq) instead of the
 * slowest core's frequency (UniFreq) raises average frequency ~15%
 * and power ~10%, cutting ED^2 by almost 20%.
 */

#include <cstdio>

#include "bench/common.hh"

using namespace varsched;

int
main()
{
    bench::banner("Section 7.4 text: NUniFreq vs UniFreq at 20 "
                  "threads",
                  "+15% frequency, +10% power, ~-20% ED^2");

    BatchConfig batch = defaultBatch(10, 5);
    bench::describeBatch(batch);

    std::vector<SystemConfig> configs(2);
    configs[0].sched = SchedAlgo::Random;
    configs[0].uniformFrequency = true;
    configs[1].sched = SchedAlgo::Random;
    configs[1].uniformFrequency = false;
    for (auto &c : configs) {
        c.pm = PmKind::None;
        c.durationMs = 150.0;
    }

    const auto r = runBatch(batch, 20, configs);
    std::printf("NUniFreq relative to UniFreq (paper in parens):\n");
    std::printf("  frequency: %.3f  (+15%% -> 1.15)\n",
                r.relative[1].freqHz.mean());
    std::printf("  power:     %.3f  (+10%% -> 1.10)\n",
                r.relative[1].powerW.mean());
    std::printf("  MIPS:      %.3f\n", r.relative[1].mips.mean());
    std::printf("  ED^2:      %.3f  (-20%% -> 0.80)\n",
                r.relative[1].ed2.mean());
    return 0;
}
