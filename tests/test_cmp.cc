/**
 * @file
 * Tests for the shared-L2 multi-core CMP model: identity with the
 * solo model at one core, measurable interference when working sets
 * collide, and the validation that the analytic profiles'
 * no-contention assumption holds for the paper's workloads.
 */

#include <gtest/gtest.h>

#include "cmpsim/cmp.hh"

namespace varsched
{
namespace
{

/** @p app alone on @p stream, over an L2 of its own. */
SimStats
soloRun(const AppProfile &app, Rng stream, std::uint64_t numInstrs)
{
    Cache l2(l2Config());
    return CoreModel(app, l2, stream).run(numInstrs);
}

TEST(CmpModel, OneCoreIsTheSoloModel)
{
    // With one core the shared-L2 model is the solo model on the same
    // stream, counter for counter. The window ends at the commit of
    // its last instruction, not at the end of the quantum holding it.
    for (const auto *name : {"gzip", "mcf", "swim", "vortex"}) {
        SCOPED_TRACE(name);
        const auto &app = findApplication(name);
        for (const std::uint64_t n : {30001u, 80001u}) {
            CmpModel cmp({&app}, Rng(42));
            const auto r = cmp.run(n);
            const auto solo = soloRun(app, Rng(42).fork(1), n);
            ASSERT_EQ(r.size(), 1u);
            const auto &s = r[0];
            EXPECT_EQ(s.instructions, n);
            EXPECT_EQ(s.instructions, solo.instructions);
            EXPECT_EQ(s.cycles, solo.cycles);
            EXPECT_EQ(s.loads, solo.loads);
            EXPECT_EQ(s.stores, solo.stores);
            EXPECT_EQ(s.branches, solo.branches);
            EXPECT_EQ(s.branchMispredicts, solo.branchMispredicts);
            EXPECT_EQ(s.l1dMisses, solo.l1dMisses);
            EXPECT_EQ(s.l2Misses, solo.l2Misses);
            EXPECT_EQ(s.intOps, solo.intOps);
            EXPECT_EQ(s.fpOps, solo.fpOps);
            EXPECT_EQ(s.unitActivity, solo.unitActivity);
        }
    }
}

TEST(CmpModel, RunsAllCoresToCompletion)
{
    std::vector<const AppProfile *> apps = {
        &findApplication("mcf"), &findApplication("vortex"),
        &findApplication("swim"), &findApplication("crafty")};
    CmpModel cmp(apps, Rng(7));
    const auto r = cmp.run(40000);
    ASSERT_EQ(r.size(), 4u);
    for (const auto &core : r) {
        EXPECT_EQ(core.instructions, 40000u);
        EXPECT_GT(core.ipc(), 0.01);
    }
}

TEST(CmpModel, RanksAppsLikeSoloModel)
{
    std::vector<const AppProfile *> apps = {
        &findApplication("mcf"), &findApplication("vortex")};
    CmpModel cmp(apps, Rng(9));
    const auto r = cmp.run(60000);
    EXPECT_GT(r[1].ipc(), r[0].ipc() * 4.0); // vortex >> mcf
}

TEST(CmpModel, SharedL2InterferenceIsSecondOrderForSpecMix)
{
    // The analytic profiles assume no L2 contention. Validate: in an
    // 8-app mix each core loses only a modest fraction of the IPC its
    // own stream reaches alone (hot sets are L1-resident; cold
    // streams miss anyway), and sharing never gains it any.
    std::vector<const AppProfile *> apps;
    const auto &pool = specApplications();
    for (std::size_t i = 0; i < 8; ++i)
        apps.push_back(&pool[(i * 3) % pool.size()]);

    CmpModel cmp(apps, Rng(11));
    const auto shared = cmp.run(30000);
    Rng streams(11);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const double solo =
            soloRun(*apps[i], streams.fork(1 + i), 30000).ipc();
        EXPECT_GT(shared[i].ipc(), solo * 0.7)
            << apps[i]->name << " lost too much IPC to L2 sharing";
        EXPECT_LE(shared[i].ipc(), solo)
            << apps[i]->name << " gained IPC from L2 sharing";
    }
}

TEST(CmpModel, CapacityPressureRaisesMissesMeasurably)
{
    // 20 copies of a warm-set-heavy app squeeze each other's L2
    // share: the shared-L2 miss ratio exceeds a 2-copy run's (about
    // 0.96 against 0.89), and core 0 misses the L2 far more often than
    // the same stream alone (about 90 against 20 MPKI).
    const auto &app = findApplication("apsi");

    CmpModel solo({&app}, Rng(13));
    const double soloMpki = solo.run(20000)[0].l2Mpki();

    CmpModel small({&app, &app}, Rng(13));
    small.run(20000);
    const double smallRatio = small.sharedL2MissRatio();

    std::vector<const AppProfile *> big(20, &app);
    CmpModel large(big, Rng(13));
    const auto crowded = large.run(20000);
    EXPECT_GT(large.sharedL2MissRatio(), smallRatio);
    EXPECT_GT(crowded[0].l2Mpki(), soloMpki);
}

TEST(CmpModel, DeterministicGivenSeed)
{
    std::vector<const AppProfile *> apps = {
        &findApplication("art"), &findApplication("gap")};
    CmpModel a(apps, Rng(5));
    CmpModel b(apps, Rng(5));
    const auto ra = a.run(20000);
    const auto rb = b.run(20000);
    for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_EQ(ra[c].cycles, rb[c].cycles);
        EXPECT_EQ(ra[c].l2Misses, rb[c].l2Misses);
    }
}

} // namespace
} // namespace varsched
