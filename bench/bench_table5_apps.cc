/**
 * @file
 * Table 5 of the paper: average core dynamic power (W, at 4 GHz/1 V)
 * and IPC for each application. Regenerated two ways:
 *  - "profile": the calibrated analytic profiles the scheduling
 *    experiments consume (anchored to Table 5 by construction), and
 *  - "measured": the trace-driven cmpsim timing model run for each
 *    application, with dynamic power from measured unit activity —
 *    the validation that the synthetic workloads reproduce the
 *    paper's distribution.
 */

#include <cstdio>

#include "bench/common.hh"
#include "cmpsim/perfmodel.hh"

using namespace varsched;

int
main()
{
    bench::banner("Table 5: per-application dynamic power and IPC",
                  "dynamic power 1.5-4.4 W (2.9x spread); IPC 0.1-1.2 "
                  "(12x spread)");

    const std::uint64_t instrs = envSize("VARSCHED_INSTRS", 200000);
    std::printf("[%llu instructions per app; override with "
                "VARSCHED_INSTRS]\n\n",
                static_cast<unsigned long long>(instrs));

    std::printf("%-8s | %9s %9s | %9s %9s | %7s %7s\n", "app",
                "paper W", "sim W", "paper IPC", "sim IPC", "l1mpki",
                "l2mpki");
    double wLo = 1e300, wHi = 0.0, ipcLo = 1e300, ipcHi = 0.0;
    for (const auto &app : specApplications()) {
        const auto m = measureApplication(app, instrs);
        std::printf("%-8s | %9.1f %9.2f | %9.1f %9.2f | %7.2f %7.2f\n",
                    app.name.c_str(), app.dynPowerW, m.dynPowerW,
                    app.ipcAt4GHz, m.ipc, m.stats.l1Mpki(),
                    m.stats.l2Mpki());
        wLo = std::min(wLo, m.dynPowerW);
        wHi = std::max(wHi, m.dynPowerW);
        ipcLo = std::min(ipcLo, m.ipc);
        ipcHi = std::max(ipcHi, m.ipc);
    }
    std::printf("\nmeasured spreads: dynamic power %.1fx (paper 2.9x), "
                "IPC %.1fx (paper 12x)\n",
                wHi / wLo, ipcHi / ipcLo);
    return 0;
}
