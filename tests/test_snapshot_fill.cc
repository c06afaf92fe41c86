/**
 * @file
 * The in-place snapshot fill: a snapshot refilled across a changing
 * chip equals a fresh buildSnapshot bit for bit, and a steady run of
 * LinOpt or Foxton* decisions (fill plus selectLevels) allocates
 * nothing after the first.
 *
 * This file replaces the global (non-aligned) operator new / delete
 * of the test binary with a pass-through to malloc / free that counts
 * the calling thread's allocations.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "chip/sensors.hh"
#include "core/linopt.hh"
#include "core/pmalgo.hh"
#include "fault/fault.hh"

namespace
{
thread_local std::size_t threadAllocations = 0;

void *
countedAlloc(std::size_t size) noexcept
{
    ++threadAllocations;
    return std::malloc(size == 0 ? 1 : size);
}

void *
countedAllocOrThrow(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}
} // namespace

// Every non-aligned form is replaced, so no block crosses between this
// malloc/free pair and another allocator (a sanitizer's among them).
// Out of line, so no caller sees malloc() behind the block it hands to
// operator delete. The aligned forms keep their defaults.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    return countedAllocOrThrow(size);
}

[[gnu::noinline]] void *
operator new[](std::size_t size)
{
    return countedAllocOrThrow(size);
}

[[gnu::noinline]] void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

[[gnu::noinline]] void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace varsched
{
namespace
{

DieParams
testParams()
{
    DieParams p;
    p.variation.gridSize = 48;
    return p;
}

void
expectBitEqual(const std::vector<double> &got,
               const std::vector<double> &want, const char *what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k]),
                  std::bit_cast<std::uint64_t>(want[k]))
            << what << "[" << k << "]: " << got[k] << " vs " << want[k];
    }
}

void
expectSameSnapshot(const ChipSnapshot &got, const ChipSnapshot &want)
{
    ASSERT_EQ(got.cores.size(), want.cores.size());
    for (std::size_t i = 0; i < got.cores.size(); ++i) {
        EXPECT_EQ(got.cores[i].coreId, want.cores[i].coreId);
        EXPECT_EQ(got.cores[i].threadId, want.cores[i].threadId);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.cores[i].refMips),
                  std::bit_cast<std::uint64_t>(want.cores[i].refMips));
    }
    expectBitEqual(got.voltage, want.voltage, "voltage");
    expectBitEqual(got.freqHz, want.freqHz, "freqHz");
    expectBitEqual(got.ipc, want.ipc, "ipc");
    expectBitEqual(got.powerW, want.powerW, "powerW");
    expectBitEqual({got.uncorePowerW, got.ptargetW, got.pcoreMaxW},
                   {want.uncorePowerW, want.ptargetW, want.pcoreMaxW},
                   "scalars");
}

/** Faults the refill test runs with: none, or a stuck-at sensor and a
 *  spiking one (which draws from the injector's stream). */
FaultSpec
sensorFaults(bool on)
{
    FaultSpec spec;
    if (!on)
        return spec;
    SensorFaultSpec stuck;
    stuck.kind = SensorFaultKind::StuckAt;
    stuck.coreId = 2;
    stuck.magnitude = 4.0;
    SensorFaultSpec spike;
    spike.kind = SensorFaultKind::Spike;
    spike.coreId = 5;
    spike.magnitude = 3.0;
    spike.probability = 0.5;
    spec.sensorFaults = {stuck, spike};
    return spec;
}

class SnapshotFillRefill
    : public ::testing::TestWithParam<std::tuple<bool, bool>>
{};

TEST_P(SnapshotFillRefill, EqualsFreshBuildBitForBit)
{
    const auto [noisy, faulty] = GetParam();
    const Die die(testParams(), 77);
    const ChipEvaluator evaluator(die);
    const auto &apps = specApplications();

    std::vector<CoreWork> work(die.numCores());
    for (std::size_t c = 0; c < work.size(); c += 2)
        work[c].app = &apps[c % apps.size()];
    work[5].app = &apps[3];
    std::vector<int> levels(die.numCores(),
                            static_cast<int>(die.maxLevel()));
    ChipCondition cond = evaluator.evaluate(work, levels);

    // The in-place side and the fresh side each own an injector of the
    // same (spec, seed), so a spike draws the same stream on both.
    const FaultSpec spec = sensorFaults(faulty);
    FaultInjector inPlaceFaults(spec, 99), freshFaults(spec, 99);
    ChipSnapshot snap;
    for (int step = 0; step < 5; ++step) {
        switch (step) {
          case 1: // one core's work changes
            work[4].cpiScale = 1.7;
            work[4].activityScale = 0.8;
            work[6].app = &apps[11];
            break;
          case 2: // then its level (and so its settled temperature)
            levels[4] = 2;
            cond = evaluator.evaluate(work, levels);
            break;
          case 3: // then its temperature alone
            cond.coreTempC[4] += 9.5;
            break;
          case 4: // a core goes idle, another starts
            work[0].app = nullptr;
            work[1].app = &apps[7];
            break;
          default:
            break;
        }
        Rng inPlaceNoise(1000 + step), freshNoise(1000 + step);
        buildSnapshotInto(snap, evaluator, work, cond, 75.0, 7.5,
                          noisy ? &inPlaceNoise : nullptr,
                          faulty ? &inPlaceFaults : nullptr);
        // A fresh evaluator too: its sensor rows are built from
        // scratch, so a row the refilled side failed to rebuild shows.
        const ChipEvaluator freshEvaluator(die);
        const ChipSnapshot fresh = buildSnapshot(
            freshEvaluator, work, cond, 75.0, 7.5,
            noisy ? &freshNoise : nullptr, faulty ? &freshFaults : nullptr);
        SCOPED_TRACE(testing::Message() << "step " << step);
        expectSameSnapshot(snap, fresh);
        if (noisy) {
            EXPECT_EQ(inPlaceNoise.next(), freshNoise.next());
        }
    }
    EXPECT_EQ(inPlaceFaults.readingsTampered(),
              freshFaults.readingsTampered());
    if (faulty) {
        EXPECT_GT(inPlaceFaults.readingsTampered(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(NoiseAndFaults, SnapshotFillRefill,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

/**
 * Heap allocations made by decisions 2..N of @p manager: a DVFS loop
 * over a chip whose work and temperatures change between decisions,
 * counting only the fill and selectLevels.
 */
std::size_t
allocationsAfterFirstDecision(PowerManager &manager)
{
    const Die die(testParams(), 31);
    const ChipEvaluator evaluator(die);
    const auto &apps = specApplications();
    std::vector<CoreWork> work(die.numCores());
    for (std::size_t c = 0; c < work.size(); ++c)
        work[c].app = &apps[(3 * c) % apps.size()];
    std::vector<int> levels(die.numCores(),
                            static_cast<int>(die.maxLevel()));
    ChipCondition cond = evaluator.evaluate(work, levels);

    ChipSnapshot snap;
    std::size_t allocations = 0;
    for (int decision = 0; decision < 12; ++decision) {
        // Phase changes move a core's work between decisions.
        work[static_cast<std::size_t>(decision) % work.size()]
            .cpiScale = 1.0 + 0.1 * decision;
        Rng noise(static_cast<std::uint64_t>(decision));
        const std::size_t before = threadAllocations;
        buildSnapshotInto(snap, evaluator, work, cond, 60.0, 6.0, &noise);
        const std::vector<int> &chosen = manager.selectLevels(snap);
        if (decision > 0)
            allocations += threadAllocations - before;
        for (std::size_t i = 0; i < snap.cores.size(); ++i)
            levels[snap.cores[i].coreId] = chosen[i];
        evaluator.evaluateInto(cond, work, levels, 0.0, &cond);
    }
    return allocations;
}

TEST(SnapshotFill, LinOptDecisionsAllocateNothingAfterTheFirst)
{
    LinOptManager linopt;
    EXPECT_EQ(allocationsAfterFirstDecision(linopt), 0u);
}

TEST(SnapshotFill, FoxtonDecisionsAllocateNothingAfterTheFirst)
{
    FoxtonStarManager foxton;
    EXPECT_EQ(allocationsAfterFirstDecision(foxton), 0u);
}

TEST(SnapshotFill, AllocationCounterSeesVectorGrowth)
{
    // The counter the two tests above rely on does count this thread's
    // allocations.
    const std::size_t before = threadAllocations;
    std::vector<double> grown;
    grown.resize(64);
    EXPECT_GT(threadAllocations, before);
    EXPECT_NE(grown.data(), nullptr);
}

} // namespace
} // namespace varsched
