/**
 * @file
 * Observability-layer suite: tracer ring-buffer semantics (bounded
 * memory, oldest-first drop, cross-thread export), the disabled-path
 * overhead contract, and bit-identity of simulation results under
 * tracing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cmpsim/workload.hh"
#include "core/system.hh"
#include "solver/rng.hh"
#include "runtime/orchestrator.hh"
#include "runtime/trace.hh"

namespace varsched
{
namespace
{

std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + leaf;
}

/** Value of "key" in a one-line JSON object; empty when absent. */
std::string
jsonValue(const std::string &object, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = object.find(needle);
    if (at == std::string::npos)
        return "";
    std::size_t from = at + needle.size();
    while (from < object.size() &&
           std::isspace(static_cast<unsigned char>(object[from])))
        ++from;
    std::size_t to = from;
    if (to < object.size() && object[to] == '"') {
        to = object.find('"', to + 1);
        if (to == std::string::npos)
            return "";
        ++to;
    } else {
        while (to < object.size() && object[to] != ',' &&
               object[to] != '}')
            ++to;
    }
    return object.substr(from, to - from);
}

/** Event lines (one JSON object each) of an exported trace file. */
std::vector<std::string>
traceLines(const std::string &path)
{
    std::string text;
    EXPECT_TRUE(readWholeFile(path, text));
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        std::string s = text.substr(pos, nl - pos);
        pos = nl + 1;
        while (!s.empty() && (s.back() == ',' || s.back() == '\r'))
            s.pop_back();
        if (!s.empty() && s.front() == '{')
            lines.push_back(s);
    }
    return lines;
}

class TraceFixture : public ::testing::Test
{
  protected:
    // Tracing must never leak into other tests (several assert
    // bit-identical simulation results with tracing off).
    void TearDown() override { trace::traceStopAndFlush(); }
};

TEST_F(TraceFixture, RingWraparoundDropsOldestAndCountsThem)
{
    const std::string path = tempPath("trace_wrap.json");
    trace::traceStart(path, /*ringCapacity=*/8);
    for (int i = 0; i < 20; ++i)
        trace::instant("wrap.event", "i", static_cast<double>(i));

    const trace::TraceStats stats = trace::traceStats();
    EXPECT_EQ(stats.recorded, 8u) << "ring must stay bounded";
    EXPECT_EQ(stats.dropped, 12u);

    ASSERT_TRUE(trace::traceStopAndFlush());

    std::vector<double> kept;
    bool sawDropMarker = false;
    for (const std::string &line : traceLines(path)) {
        const std::string name = jsonValue(line, "name");
        if (name == "\"wrap.event\"")
            kept.push_back(std::strtod(
                jsonValue(line, "i").c_str(), nullptr));
        if (name == "\"trace.dropped\"") {
            sawDropMarker = true;
            EXPECT_EQ(jsonValue(line, "count"), "12");
        }
    }
    // Oldest-first drop: exactly the last 8 events survive, exported
    // in recording order.
    ASSERT_EQ(kept.size(), 8u);
    for (std::size_t k = 0; k < kept.size(); ++k)
        EXPECT_DOUBLE_EQ(kept[k], static_cast<double>(12 + k));
    EXPECT_TRUE(sawDropMarker)
        << "wraparound must be visible in the exported trace";
    std::remove(path.c_str());
}

TEST_F(TraceFixture, ExportsPerThreadLanesWithMonotonicTimestamps)
{
    const std::string path = tempPath("trace_threads.json");
    trace::traceStart(path);

    {
        TRACE_SCOPE("main.outer");
        const auto worker = [](const char *threadName) {
            trace::setThreadName(threadName);
            for (int i = 0; i < 50; ++i) {
                {
                    TRACE_SCOPE("worker.step");
                }
                trace::instant("worker.tick", "i",
                               static_cast<double>(i));
            }
        };
        std::thread a(worker, "lane-a");
        std::thread b(worker, "lane-b");
        a.join();
        b.join();
    }
    ASSERT_TRUE(trace::traceStopAndFlush());

    std::map<std::string, std::vector<double>> tsByTid;
    std::vector<std::string> threadNames;
    std::size_t spans = 0;
    for (const std::string &line : traceLines(path)) {
        const std::string phase = jsonValue(line, "ph");
        if (phase == "\"M\"") {
            threadNames.push_back(jsonValue(line, "args"));
            continue;
        }
        if (phase == "\"X\"")
            ++spans;
        tsByTid[jsonValue(line, "tid")].push_back(std::strtod(
            jsonValue(line, "ts").c_str(), nullptr));
    }

    // Three lanes: the main thread and the two named workers.
    EXPECT_EQ(tsByTid.size(), 3u);
    EXPECT_EQ(spans, 1u + 2u * 50u);
    EXPECT_EQ(threadNames.size(), 2u);

    // Within a lane the exported order is the recording order, and
    // instant timestamps never run backwards (steady clock).
    for (const auto &[tid, ts] : tsByTid) {
        for (std::size_t k = 1; k < ts.size(); ++k)
            EXPECT_GE(ts[k], 0.0);
        std::vector<double> sorted(ts);
        std::sort(sorted.begin(), sorted.end());
        // Spans are stamped with their start time and this workload
        // closes each span before recording the next event, so a
        // lane's export order is its time order.
        EXPECT_EQ(ts, sorted) << "lane " << tid;
    }
    std::remove(path.c_str());
}

TEST_F(TraceFixture, SimulationResultsAreBitIdenticalUnderTracing)
{
    DieParams params;
    params.variation.gridSize = 48;
    const Die die(params, 77);
    Rng rng(3);
    const auto apps = randomWorkload(8, rng);
    SystemConfig config;
    config.durationMs = 50.0;
    config.ptargetW = 75.0;
    // Default pm is None, which skips the DVFS decision block — run
    // the LP manager so the pm.decide span family is exercised.
    config.pm = PmKind::LinOpt;

    const auto runOnce = [&]() {
        SystemSimulator sim(die, apps, config);
        return sim.run();
    };

    const SystemResult off = runOnce();

    const std::string path = tempPath("trace_identity.json");
    trace::traceStart(path);
    const SystemResult on = runOnce();
    ASSERT_TRUE(trace::traceStopAndFlush());
    const SystemResult offAgain = runOnce();

    // Tracing observes, never perturbs: every metric is bit-identical
    // with tracing on, off, and off-after-on.
    for (const SystemResult *r : {&on, &offAgain}) {
        EXPECT_EQ(off.avgMips, r->avgMips);
        EXPECT_EQ(off.avgWeightedIpc, r->avgWeightedIpc);
        EXPECT_EQ(off.avgPowerW, r->avgPowerW);
        EXPECT_EQ(off.avgFreqHz, r->avgFreqHz);
        EXPECT_EQ(off.ed2, r->ed2);
        EXPECT_EQ(off.powerDeviation, r->powerDeviation);
        EXPECT_EQ(off.worstAgingRate, r->worstAgingRate);
        EXPECT_EQ(off.powerTrace, r->powerTrace);
    }

    // And the traced run actually recorded the tick-loop spans.
    std::string text;
    ASSERT_TRUE(readWholeFile(path, text));
    EXPECT_NE(text.find("physics."), std::string::npos);
    EXPECT_NE(text.find("pm.decide"), std::string::npos);
    EXPECT_NE(text.find("sched.place"), std::string::npos);
    std::remove(path.c_str());
}

TEST_F(TraceFixture, DisabledTraceSitesAreInvisiblyCheap)
{
    ASSERT_FALSE(trace::enabled());
    // The overhead contract (trace.hh): a disabled site is one
    // relaxed atomic load and a branch. 1% of even a microsecond-
    // scale tick is ~10 ns; measure the site cost directly and
    // enforce a ceiling far below any real tick, with slack for
    // sanitizer builds and noisy CI neighbours.
    constexpr int kIters = 1 << 20;
    volatile double sink = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
        TRACE_SCOPE("guard.noop");
        TRACE_INSTANT("guard.instant");
        TRACE_COUNTER("guard.counter", 1.0);
        sink = sink + 1.0;
    }
    const double ns =
        std::chrono::duration<double, std::nano>(
            std::chrono::steady_clock::now() - t0)
            .count() /
        static_cast<double>(kIters);
    // Three disabled sites + the loop body per iteration.
    EXPECT_LT(ns, 150.0)
        << "disabled trace sites cost " << ns
        << " ns/iteration — the always-on contract is broken";
}

} // namespace
} // namespace varsched
