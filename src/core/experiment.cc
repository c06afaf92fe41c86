#include "core/experiment.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <optional>

#include "runtime/metrics.hh"
#include "runtime/threadpool.hh"
#include "runtime/trace.hh"

namespace varsched
{

bool
envFlag(const char *name, bool fallback)
{
    const char *value = std::getenv(name);
    if (value == nullptr || *value == '\0')
        return fallback;
    return !(value[0] == '0' && value[1] == '\0');
}

BatchConfig
defaultBatch(std::size_t dies, std::size_t trials)
{
    BatchConfig batch;
    batch.numDies = envSize("VARSCHED_DIES", dies);
    batch.numTrials = envSize("VARSCHED_TRIALS", trials);
    return batch;
}

std::uint64_t
dieSeedFor(const BatchConfig &batch, std::size_t die)
{
    return deriveSeed(batch.seed, 0xD1E, die);
}

Rng
workloadRngFor(const BatchConfig &batch, std::size_t die,
               std::size_t trial)
{
    return Rng(deriveSeed(batch.seed, 0x70000 + die, trial));
}

namespace
{

/** All configurations' results for one (die, trial) tuple. */
using TupleRuns = std::vector<SystemResult>;

/** Simulate every configuration on one (die, trial) tuple. */
TupleRuns
runTuple(const BatchConfig &batch, const Die &die, std::size_t d,
         std::size_t t, std::size_t numThreads,
         const std::vector<SystemConfig> &configs)
{
    Rng workloadRng = workloadRngFor(batch, d, t);
    const auto apps =
        randomWorkload(numThreads, workloadRng, batch.workloadPool);
    const std::uint64_t runSeed = workloadRng.next();

    static metrics::Histogram &trialMs =
        metrics::Registry::global().histogram("trial_ms");

    TupleRuns runs;
    runs.reserve(configs.size());
    for (const SystemConfig &proto : configs) {
        SystemConfig config = proto;
        config.seed = runSeed; // identical across configs
        SystemSimulator sim(die, apps, config);
        const auto start = std::chrono::steady_clock::now();
        {
            TRACE_SCOPE("experiment.trial");
            runs.push_back(sim.run());
        }
        trialMs.record(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count());
    }
    return runs;
}

} // namespace

BatchResult
runBatch(const BatchConfig &batch, std::size_t numThreads,
         const std::vector<SystemConfig> &configs)
{
    assert(!configs.empty());

    const std::size_t numTuples = batch.numDies * batch.numTrials;
    std::vector<TupleRuns> tuples(numTuples);

    // Manufacture the dies concurrently (each is a pure function of
    // its derived seed), then fan the (die, trial) tuples out. Dies
    // are read-only during the tuple phase, so sharing them is
    // race-free.
    const std::size_t workers = batch.workerThreads > 0
        ? batch.workerThreads
        : configuredThreads();
    std::vector<std::optional<Die>> dies(batch.numDies);
    parallelFor(workers, batch.numDies, [&](std::size_t d) {
        dies[d].emplace(batch.dieParams, dieSeedFor(batch, d));
    });
    parallelFor(workers, numTuples, [&](std::size_t i) {
        const std::size_t d = i / batch.numTrials;
        const std::size_t t = i % batch.numTrials;
        tuples[i] = runTuple(batch, *dies[d], d, t, numThreads, configs);
    });

    // Ordered reduction: always serial tuple order, independent of
    // which worker finished when — this is what keeps the Summary
    // accumulators bit-identical across worker counts.
    BatchResult result;
    result.absolute.resize(configs.size());
    result.relative.resize(configs.size());
    for (const TupleRuns &runs : tuples) {
        for (std::size_t k = 0; k < configs.size(); ++k) {
            auto &abs = result.absolute[k];
            abs.mips.add(runs[k].avgMips);
            abs.weightedIpc.add(runs[k].avgWeightedIpc);
            abs.powerW.add(runs[k].avgPowerW);
            abs.freqHz.add(runs[k].avgFreqHz);
            abs.ed2.add(runs[k].ed2);
            abs.weightedEd2.add(runs[k].weightedEd2);
            abs.deviation.add(runs[k].powerDeviation);
            abs.worstAging.add(runs[k].worstAgingRate);
            abs.lifetimeYears.add(runs[k].projectedLifetimeYears);
            result.exactTicks += runs[k].exactTicks;
            result.sampledTicks += runs[k].sampledTicks;
            result.estErrMax =
                std::max(result.estErrMax, runs[k].estErr);
            result.phaseInvalidations += runs[k].phaseInvalidations;

            auto &rel = result.relative[k];
            const SystemResult &base = runs[0];
            rel.mips.add(runs[k].avgMips / base.avgMips);
            rel.weightedIpc.add(runs[k].avgWeightedIpc /
                                base.avgWeightedIpc);
            rel.weightedProgress.add(runs[k].avgWeightedProgress /
                                     base.avgWeightedProgress);
            rel.powerW.add(runs[k].avgPowerW / base.avgPowerW);
            rel.freqHz.add(runs[k].avgFreqHz / base.avgFreqHz);
            rel.ed2.add(runs[k].ed2 / base.ed2);
            rel.weightedEd2.add(runs[k].weightedEd2 /
                                base.weightedEd2);
        }
    }
    return result;
}

} // namespace varsched
