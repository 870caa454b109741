/**
 * @file
 * Unit tests for the GMMU: walk costs, MMU-cache interaction,
 * invalidation and update walks, batching, walker contention, walk-
 * queue backpressure, and the idle hook.
 */

#include <gtest/gtest.h>

#include "gmmu/gmmu.hh"
#include "sim/event_queue.hh"

namespace idyll
{
namespace
{

struct GmmuFixture : ::testing::Test
{
    GmmuFixture() : pt(kLayout4K), gmmu(eq, cfg, kLayout4K, pt) {}

    EventQueue eq;
    GmmuConfig cfg; // 8 walkers, 100 cy/level, default MMU caches
    RadixPageTable pt;
    Gmmu gmmu;
};

TEST_F(GmmuFixture, ColdDemandWalkCostsFullDepth)
{
    pt.install(0x500, makeDevicePfn(0, 3));
    Tick done_at = 0;
    WalkResult result;
    WalkRequest req;
    req.kind = WalkKind::Demand;
    req.vpn = 0x500;
    req.done = [&](const WalkResult &r) {
        done_at = eq.now();
        result = r;
    };
    gmmu.submit(std::move(req));
    eq.run();
    // PWC lookup (1) + 5 node accesses x 100.
    EXPECT_EQ(done_at, 501u);
    EXPECT_TRUE(result.found);
    EXPECT_EQ(result.pte.pfn(), makeDevicePfn(0, 3));
}

TEST_F(GmmuFixture, WarmWalkSkipsToLeafViaPwc)
{
    pt.install(0x500, makeDevicePfn(0, 3));
    bool first_done = false;
    WalkRequest warm;
    warm.kind = WalkKind::Demand;
    warm.vpn = 0x500;
    Tick warm_start = 0, warm_end = 0;
    warm.done = [&](const WalkResult &) { warm_end = eq.now(); };

    WalkRequest cold;
    cold.kind = WalkKind::Demand;
    cold.vpn = 0x500;
    cold.done = [&](const WalkResult &) {
        first_done = true;
        warm_start = eq.now();
        gmmu.submit(std::move(warm));
    };
    gmmu.submit(std::move(cold));
    eq.run();
    EXPECT_TRUE(first_done);
    // Second walk hits the level-1 PWC pointer: 1 + 100.
    EXPECT_EQ(warm_end - warm_start, 101u);
}

TEST_F(GmmuFixture, WalkOfAbsentPathTerminatesEarly)
{
    Tick done_at = 0;
    WalkResult result;
    WalkRequest req;
    req.kind = WalkKind::Demand;
    req.vpn = 0xDEAD;
    req.done = [&](const WalkResult &r) {
        done_at = eq.now();
        result = r;
    };
    gmmu.submit(std::move(req));
    eq.run();
    EXPECT_FALSE(result.found);
    // Only the root is read before the empty entry is found.
    EXPECT_EQ(done_at, 101u);
}

TEST_F(GmmuFixture, InvalidateReportsNecessity)
{
    pt.install(0x77, makeDevicePfn(0, 1));
    std::uint32_t invalidated = 99;
    WalkRequest req;
    req.kind = WalkKind::Invalidate;
    req.vpn = 0x77;
    req.done = [&](const WalkResult &r) { invalidated = r.invalidated; };
    gmmu.submit(std::move(req));
    eq.run();
    EXPECT_EQ(invalidated, 1u);
    EXPECT_EQ(pt.findValid(0x77), nullptr);

    // Invalidating again is the paper's "unnecessary" case: it still
    // walks, but clears nothing.
    WalkRequest again;
    again.kind = WalkKind::Invalidate;
    again.vpn = 0x77;
    again.done = [&](const WalkResult &r) { invalidated = r.invalidated; };
    gmmu.submit(std::move(again));
    eq.run();
    EXPECT_EQ(invalidated, 0u);
    EXPECT_EQ(gmmu.stats().invalWalks.value(), 2u);
}

TEST_F(GmmuFixture, UpdateInstallsMapping)
{
    Pte fresh;
    fresh.setValid(true);
    fresh.setPfn(makeDevicePfn(1, 9));
    fresh.setWritable(true);
    WalkRequest req;
    req.kind = WalkKind::Update;
    req.vpn = 0xBEEF;
    req.newPte = fresh;
    bool done = false;
    req.done = [&](const WalkResult &) { done = true; };
    gmmu.submit(std::move(req));
    eq.run();
    EXPECT_TRUE(done);
    ASSERT_NE(pt.findValid(0xBEEF), nullptr);
    EXPECT_EQ(pt.findValid(0xBEEF)->pfn(), makeDevicePfn(1, 9));
}

TEST_F(GmmuFixture, BatchInvalidateAmortizesTheWalk)
{
    // Install 8 pages sharing one leaf node (one IRMB base).
    std::vector<Vpn> batch;
    for (Vpn v = 0x2000; v < 0x2008; ++v) {
        pt.install(v, makeDevicePfn(0, v));
        batch.push_back(v);
    }
    Tick done_at = 0;
    std::uint32_t invalidated = 0;
    WalkRequest req;
    req.kind = WalkKind::BatchInvalidate;
    req.batch = batch;
    req.done = [&](const WalkResult &r) {
        done_at = eq.now();
        invalidated = r.invalidated;
    };
    gmmu.submit(std::move(req));
    eq.run();
    EXPECT_EQ(invalidated, 8u);
    for (Vpn v : batch)
        EXPECT_EQ(pt.findValid(v), nullptr);
    // One full walk + write (601) + 7 x single PTE write (100).
    EXPECT_EQ(done_at, 601u + 700u);
    // Far cheaper than 8 individual cold invalidations (8 x 601).
    EXPECT_LT(done_at, 8u * 601u);
}

TEST_F(GmmuFixture, NinthWalkWaitsForAFreeWalker)
{
    pt.install(0x10, makeDevicePfn(0, 0));
    std::vector<Tick> completions;
    for (int i = 0; i < 9; ++i) {
        WalkRequest req;
        req.kind = WalkKind::Demand;
        req.vpn = 0x10;
        req.done = [&](const WalkResult &) {
            completions.push_back(eq.now());
        };
        gmmu.submit(std::move(req));
    }
    EXPECT_EQ(gmmu.queueDepth(), 1u); // 8 dispatched, 1 queued
    eq.run();
    ASSERT_EQ(completions.size(), 9u);
    // The 9th walk could only start once a walker freed up.
    EXPECT_GT(gmmu.stats().queueWait.sum(), 0.0);
    EXPECT_EQ(gmmu.stats().demandWalks.value(), 9u);
}

TEST_F(GmmuFixture, StaleCachedPointerCannotMakeAWalkFree)
{
    // Regression for the stale-PWC bug. Seed the MMU caches with a
    // full pointer path for a VPN whose page-table path does NOT
    // exist (the state left behind when a path is torn down under a
    // live cache). The old shared cache answered at level 1, the walk
    // "started" below its stop level, and accesses underflowed to
    // zero — a free walk. The clamped probe must drop the stale
    // pointers and charge the full root read instead.
    gmmu.mmuCache().fill(0xDEAD, 1);
    Tick done_at = 0;
    WalkResult result;
    WalkRequest req;
    req.kind = WalkKind::Demand;
    req.vpn = 0xDEAD;
    req.done = [&](const WalkResult &r) {
        done_at = eq.now();
        result = r;
    };
    gmmu.submit(std::move(req));
    eq.run();
    EXPECT_FALSE(result.found);
    // Same cost as a cold absent-path walk: lookup (1) + root (100).
    // Before the fix this completed at tick 1 (zero accesses).
    EXPECT_EQ(done_at, 101u);
    // All four stale levels were scrubbed on the way.
    EXPECT_EQ(gmmu.mmuCache().staleDrops(), 4u);
    EXPECT_EQ(gmmu.mmuCache().deepestValidHit(0xDEAD, 1), 0u);
}

TEST_F(GmmuFixture, InvalidateWalkScrubsTheCachedPath)
{
    // A demand walk caches the pointer path; the invalidation walk
    // must flush it (paging-structure caches are not coherent), so
    // the next demand walk pays the full depth again.
    pt.install(0x500, makeDevicePfn(0, 3));
    WalkRequest warm;
    warm.kind = WalkKind::Demand;
    warm.vpn = 0x500;
    warm.done = [](const WalkResult &) {};
    gmmu.submit(std::move(warm));
    eq.run();
    EXPECT_EQ(gmmu.mmuCache().deepestValidHit(0x500, 1), 1u);

    WalkRequest inval;
    inval.kind = WalkKind::Invalidate;
    inval.vpn = 0x500;
    inval.done = [](const WalkResult &) {};
    gmmu.submit(std::move(inval));
    eq.run();
    EXPECT_EQ(gmmu.mmuCache().deepestValidHit(0x500, 1), 0u);
}

TEST_F(GmmuFixture, FullWalkQueueNacksAndRetries)
{
    // Regression for the unbounded walk queue: walkQueueEntries was
    // config-only, every submit was accepted. With two walkers and a
    // 1-deep queue, the 4th concurrent submit must be NACKed, miss
    // the dispatch slot it would have taken from a 64-deep queue
    // (it is still spinning when a walker goes idle), and complete
    // later. Each walk targets a different root subtree so every walk
    // is a cold full-depth one and the NACK delay is visible in the
    // last completion time.
    cfg.walkerThreads = 2;
    cfg.walkQueueEntries = 1;
    Gmmu small(eq, cfg, kLayout4K, pt);
    for (Vpn i = 0; i < 4; ++i)
        pt.install(i << 36, makeDevicePfn(0, i));

    auto lastCompletion = [&](Gmmu &g) {
        const Tick start = eq.now();
        Tick last = 0;
        int done = 0;
        for (Vpn i = 0; i < 4; ++i) {
            WalkRequest req;
            req.kind = WalkKind::Demand;
            req.vpn = i << 36;
            req.done = [&](const WalkResult &) {
                last = eq.now() - start;
                ++done;
            };
            g.submit(std::move(req));
        }
        eq.run();
        EXPECT_EQ(done, 4);
        return last;
    };

    const Tick bounded = lastCompletion(small);
    EXPECT_GT(small.stats().queueFullStalls.value(), 0u);
    // The NACK spins land in the request's queue wait (and from
    // there in the ptw-queue latency phase).
    EXPECT_GT(small.stats().queueWait.sum(), 0.0);

    cfg.walkQueueEntries = 64;
    Gmmu roomy(eq, cfg, kLayout4K, pt);
    const Tick unbounded = lastCompletion(roomy);
    EXPECT_EQ(roomy.stats().queueFullStalls.value(), 0u);
    EXPECT_GT(bounded, unbounded);
}

TEST_F(GmmuFixture, IdleHookFiresWhenQueueDrains)
{
    pt.install(0x1, makeDevicePfn(0, 0));
    int hook_calls = 0;
    gmmu.setIdleHook([&] { ++hook_calls; });
    WalkRequest req;
    req.kind = WalkKind::Demand;
    req.vpn = 0x1;
    req.done = [](const WalkResult &) {};
    gmmu.submit(std::move(req));
    eq.run();
    EXPECT_GE(hook_calls, 1);
}

TEST_F(GmmuFixture, BusyCyclesAttributedPerKind)
{
    pt.install(0x9, makeDevicePfn(0, 0));
    WalkRequest demand;
    demand.kind = WalkKind::Demand;
    demand.vpn = 0x9;
    demand.done = [](const WalkResult &) {};
    gmmu.submit(std::move(demand));
    WalkRequest inval;
    inval.kind = WalkKind::Invalidate;
    inval.vpn = 0x9;
    inval.done = [](const WalkResult &) {};
    gmmu.submit(std::move(inval));
    eq.run();
    EXPECT_GT(gmmu.stats().busyDemandCycles.value(), 0u);
    EXPECT_GT(gmmu.stats().busyInvalCycles.value(), 0u);
    EXPECT_EQ(gmmu.stats().demandWalks.value(), 1u);
    EXPECT_EQ(gmmu.stats().invalWalks.value(), 1u);
}

} // namespace
} // namespace idyll
