/**
 * @file
 * Integration tests for the GPU access pipeline against a real driver
 * and network, driven access by access (no workload).
 */

#include <gtest/gtest.h>

#include "harness/system.hh"

namespace idyll
{
namespace
{

SystemConfig
tinyConfig()
{
    SystemConfig cfg;
    cfg.numGpus = 2;
    cfg.cusPerGpu = 2;
    cfg.warpsPerCu = 2;
    return cfg;
}

VAddr
vaOf(Vpn vpn)
{
    return vpn << 12;
}

TEST(GpuPipeline, FirstAccessFaultsThenHitsTlb)
{
    MultiGpuSystem sys(tinyConfig());
    Gpu &gpu = sys.gpu(0);

    gpu.access(0, vaOf(100), false);
    sys.eventQueue().run();
    EXPECT_EQ(gpu.completedAccesses(), 1u);
    EXPECT_EQ(gpu.stats().farFaultsRaised.value(), 1u);
    ASSERT_NE(gpu.localPageTable().findValid(100), nullptr);

    // Second access: L1 TLB hit, no further faults or walks.
    const Tick before = sys.eventQueue().now();
    gpu.access(0, vaOf(100), false);
    sys.eventQueue().run();
    EXPECT_EQ(gpu.completedAccesses(), 2u);
    EXPECT_EQ(gpu.stats().farFaultsRaised.value(), 1u);
    // 1 cycle L1 probe + 200 local DRAM.
    EXPECT_EQ(sys.eventQueue().now() - before,
              1u + sys.config().localDramLatency);
}

TEST(GpuPipeline, ConcurrentMissesMergeInMshr)
{
    MultiGpuSystem sys(tinyConfig());
    Gpu &gpu = sys.gpu(0);
    for (int i = 0; i < 4; ++i)
        gpu.access(i % 2, vaOf(55), false);
    sys.eventQueue().run();
    EXPECT_EQ(gpu.completedAccesses(), 4u);
    // One primary miss -> one far fault, regardless of waiters.
    EXPECT_EQ(gpu.stats().farFaultsRaised.value(), 1u);
}

TEST(GpuPipeline, DemandMissLatencyIsRecorded)
{
    MultiGpuSystem sys(tinyConfig());
    Gpu &gpu = sys.gpu(0);
    gpu.access(0, vaOf(7), false);
    sys.eventQueue().run();
    EXPECT_EQ(gpu.stats().demandTlbMisses.value(), 1u);
    EXPECT_GT(gpu.stats().demandTlbMissLatency.mean(), 0.0);
}

TEST(GpuPipeline, RemoteAccessGoesOverTheNetwork)
{
    MultiGpuSystem sys(tinyConfig());
    // GPU 0 touches first -> page lives on GPU 0.
    sys.gpu(0).access(0, vaOf(9), false);
    sys.eventQueue().run();
    // GPU 1 faults, gets a remote mapping, reads remotely.
    sys.gpu(1).access(0, vaOf(9), false);
    sys.eventQueue().run();
    EXPECT_EQ(sys.gpu(1).stats().remoteAccesses.value(), 1u);
    EXPECT_EQ(sys.gpu(1).stats().localAccesses.value(), 0u);
    EXPECT_GT(sys.network().classBytes(MsgClass::RemoteData).value(),
              0u);
    EXPECT_EQ(sys.driver().residentPages(1), 0u);
}

TEST(GpuPipeline, InvalidationShootsDownTlbAndPte)
{
    SystemConfig cfg = tinyConfig();
    MultiGpuSystem sys(cfg);
    Gpu &gpu = sys.gpu(0);
    gpu.access(0, vaOf(33), false);
    sys.eventQueue().run();
    ASSERT_TRUE(gpu.hasValidMapping(33));

    gpu.receiveInvalidation(33, 1);
    sys.eventQueue().run();
    EXPECT_FALSE(gpu.hasValidMapping(33));
    EXPECT_EQ(gpu.localPageTable().findValid(33), nullptr);
    EXPECT_FALSE(gpu.tlbs().probe(0, 33).hit);
    EXPECT_EQ(gpu.stats().invalsReceived.value(), 1u);
    EXPECT_EQ(gpu.stats().invalsNecessary.value(), 1u);
    EXPECT_GT(gpu.stats().invalApplyLatency.mean(), 0.0);
}

TEST(GpuPipeline, LazyInvalidationBuffersInIrmb)
{
    SystemConfig cfg = tinyConfig();
    cfg.invalApply = InvalApply::Lazy;
    MultiGpuSystem sys(cfg);
    Gpu &gpu = sys.gpu(0);
    gpu.access(0, vaOf(44), false);
    sys.eventQueue().run();

    gpu.receiveInvalidation(44, 1);
    // Buffered: logically invalid immediately, even though the PTE is
    // written back lazily.
    EXPECT_FALSE(gpu.hasValidMapping(44));
    ASSERT_NE(gpu.irmb(), nullptr);
    EXPECT_EQ(gpu.irmb()->stats().inserts.value(), 1u);

    // The idle walker eventually drains the IRMB into the page table.
    sys.eventQueue().run();
    EXPECT_EQ(gpu.localPageTable().findValid(44), nullptr);
    EXPECT_GE(gpu.irmb()->stats().idleWritebacks.value(), 1u);
}

TEST(GpuPipeline, IrmbHitBypassesTheLocalWalk)
{
    SystemConfig cfg = tinyConfig();
    cfg.invalApply = InvalApply::Lazy;
    MultiGpuSystem sys(cfg);
    Gpu &gpu = sys.gpu(0);
    gpu.access(0, vaOf(21), false);
    sys.eventQueue().run();
    const auto walks_before = gpu.gmmu().stats().demandWalks.value();

    gpu.receiveInvalidation(21, 1);
    // Immediately re-access: the IRMB still holds the invalidation
    // (no idle time elapsed yet), so the walk must be bypassed.
    gpu.access(0, vaOf(21), false);
    sys.eventQueue().run();
    EXPECT_EQ(gpu.completedAccesses(), 2u);
    EXPECT_GE(gpu.stats().irmbBypassedWalks.value() +
                  gpu.irmb()->stats().elided.value(),
              1u);
    // The refault resolved to a fresh mapping.
    EXPECT_TRUE(gpu.hasValidMapping(21));
    (void)walks_before;
}

TEST(GpuPipeline, ZeroLatencyInvalidationIsInstant)
{
    SystemConfig cfg = tinyConfig();
    cfg.invalApply = InvalApply::ZeroLatency;
    MultiGpuSystem sys(cfg);
    Gpu &gpu = sys.gpu(0);
    gpu.access(0, vaOf(70), false);
    sys.eventQueue().run();

    const auto inval_walks = gpu.gmmu().stats().invalWalks.value();
    gpu.receiveInvalidation(70, 1);
    // Applied synchronously, with no walker involvement.
    EXPECT_EQ(gpu.localPageTable().findValid(70), nullptr);
    EXPECT_EQ(gpu.gmmu().stats().invalWalks.value(), inval_walks);
}

TEST(GpuPipeline, AccessCounterTriggersMigration)
{
    SystemConfig cfg = tinyConfig();
    cfg.accessCounterThreshold = 4;
    MultiGpuSystem sys(cfg);
    // Page homes on GPU 0.
    sys.gpu(0).access(0, vaOf(5), false);
    sys.eventQueue().run();

    // GPU 1 hammers it remotely until the counter saturates.
    for (int i = 0; i < 8; ++i) {
        sys.gpu(1).access(0, vaOf(5), false);
        sys.eventQueue().run();
    }
    EXPECT_EQ(sys.gpu(1).stats().migRequestsSent.value(), 1u);
    EXPECT_EQ(sys.driver().stats().migrations.value(), 1u);
    // The page now lives on GPU 1.
    const Pte *hpte = sys.driver().hostPageTable().findValid(5);
    ASSERT_NE(hpte, nullptr);
    EXPECT_EQ(ownerOf(hpte->pfn()), 1u);

    // And further GPU 1 accesses are local.
    const auto remote_before = sys.gpu(1).stats().remoteAccesses.value();
    sys.gpu(1).access(0, vaOf(5), false);
    sys.eventQueue().run();
    EXPECT_EQ(sys.gpu(1).stats().remoteAccesses.value(), remote_before);
    EXPECT_GT(sys.gpu(1).stats().localAccesses.value(), 0u);
}

TEST(GpuPipeline, DuplicateRoundIsIgnoredAndReackedOnceApplied)
{
    MultiGpuSystem sys(tinyConfig());
    Gpu &gpu = sys.gpu(0);
    gpu.access(0, vaOf(33), false);
    sys.eventQueue().run();
    const Pte *pte = gpu.localPageTable().findValid(33);
    ASSERT_NE(pte, nullptr);
    const Pfn pfn = pte->pfn();
    const Counter &acks = sys.driver().stats().invalAcks;
    const auto acks_before = acks.value();

    // Re-delivered while the first delivery's walk is still queued:
    // ignored, and not re-acked, because the PTE is still live.
    gpu.receiveInvalidation(33, 1);
    gpu.receiveInvalidation(33, 1);
    EXPECT_EQ(gpu.stats().invalsReceived.value(), 1u);
    EXPECT_EQ(gpu.stats().dupInvalsIgnored.value(), 1u);
    sys.eventQueue().run();
    EXPECT_EQ(acks.value(), acks_before + 1);

    // Once the invalidation is applied, a re-delivery re-acks.
    gpu.receiveInvalidation(33, 1);
    sys.eventQueue().run();
    EXPECT_EQ(gpu.stats().dupInvalsIgnored.value(), 2u);
    EXPECT_EQ(acks.value(), acks_before + 2);

    // A duplicate leaves the epoch alone: an install dispatched before
    // it is not superseded, so the mapping stays in the page table.
    gpu.receiveNewMapping(33, pfn, true);
    gpu.receiveInvalidation(33, 1);
    sys.eventQueue().run();
    EXPECT_NE(gpu.localPageTable().findValid(33), nullptr);
    EXPECT_EQ(gpu.stats().invalsReceived.value(), 1u);
    EXPECT_EQ(gpu.stats().dupInvalsIgnored.value(), 3u);
}

TEST(GpuPipeline, AccessCounterRestartsOnRemapAndReArms)
{
    SystemConfig cfg = tinyConfig();
    cfg.accessCounterThreshold = 4;
    MultiGpuSystem sys(cfg);
    auto reads = [&](GpuId g, int n) {
        for (int i = 0; i < n; ++i) {
            sys.gpu(g).access(0, vaOf(5), false);
            sys.eventQueue().run();
        }
    };
    reads(0, 1); // the page homes on GPU 0
    Gpu &gpu = sys.gpu(1);

    // Three remote reads, a new mapping, three more: the count
    // restarted, so the threshold of four is never reached.
    reads(1, 3);
    const Pte *pte = gpu.localPageTable().findValid(5);
    ASSERT_NE(pte, nullptr);
    gpu.receiveNewMapping(5, pte->pfn(), pte->writable());
    sys.eventQueue().run();
    reads(1, 3);
    EXPECT_EQ(gpu.stats().migRequestsSent.value(), 0u);

    // The fourth read fires the request and the page moves to GPU 1.
    reads(1, 1);
    EXPECT_EQ(gpu.stats().migRequestsSent.value(), 1u);
    EXPECT_EQ(sys.driver().stats().migrations.value(), 1u);

    // GPU 0 pulls it back, which invalidates GPU 1's mapping. That
    // re-arms GPU 1's trigger: it may request the page again.
    reads(0, 4);
    EXPECT_EQ(sys.driver().stats().migrations.value(), 2u);
    reads(1, 4);
    EXPECT_EQ(gpu.stats().migRequestsSent.value(), 2u);
    EXPECT_EQ(sys.driver().stats().migrations.value(), 3u);
}

TEST(GpuPipeline, InvalidationRestartsTheAccessCounter)
{
    // A Trans-FW forwarded mapping is installed without going through
    // receiveNewMapping, so here only the invalidation can restart
    // the count.
    SystemConfig cfg = tinyConfig();
    cfg.accessCounterThreshold = 4;
    cfg.transFw.enabled = true;
    MultiGpuSystem sys(cfg);
    auto reads = [&](GpuId g, int n) {
        for (int i = 0; i < n; ++i) {
            sys.gpu(g).access(0, vaOf(5), false);
            sys.eventQueue().run();
        }
    };
    reads(0, 1); // the page homes on GPU 0
    Gpu &gpu = sys.gpu(1);
    reads(1, 3);
    gpu.receiveInvalidation(5, 1);
    sys.eventQueue().run();
    reads(1, 3);
    EXPECT_EQ(gpu.stats().transFwForwarded.value(), 2u);
    EXPECT_EQ(gpu.stats().migRequestsSent.value(), 0u);
}

TEST(GpuPipeline, TransFwForwardsFromPeer)
{
    SystemConfig cfg = tinyConfig();
    cfg.transFw.enabled = true;
    MultiGpuSystem sys(cfg);
    // GPU 0 establishes the mapping; peers learn the fingerprint.
    sys.gpu(0).access(0, vaOf(12), false);
    sys.eventQueue().run();

    const auto host_faults = sys.driver().stats().farFaults.value();
    sys.gpu(1).access(0, vaOf(12), false);
    sys.eventQueue().run();
    EXPECT_EQ(sys.gpu(1).stats().transFwForwarded.value(), 1u);
    // The host never saw GPU 1's fault.
    EXPECT_EQ(sys.driver().stats().farFaults.value(), host_faults);
    EXPECT_TRUE(sys.gpu(1).hasValidMapping(12));
}

} // namespace
} // namespace idyll
