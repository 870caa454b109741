/**
 * @file
 * Tests for the page replication comparator (Section 7.4): reads
 * create local read-only replicas, writes collapse them back to a
 * single writable page.
 */

#include <gtest/gtest.h>

#include "harness/cli.hh"
#include "harness/system.hh"

namespace idyll
{
namespace
{

SystemConfig
replCfg()
{
    SystemConfig cfg;
    cfg.numGpus = 3;
    cfg.cusPerGpu = 2;
    cfg.warpsPerCu = 2;
    cfg.pageReplication = true;
    return cfg;
}

VAddr
vaOf(Vpn vpn)
{
    return vpn << 12;
}

TEST(Replication, ReadFaultCreatesLocalReplica)
{
    MultiGpuSystem sys(replCfg());
    sys.gpu(0).access(0, vaOf(10), false);
    sys.eventQueue().run();
    sys.gpu(1).access(0, vaOf(10), false);
    sys.eventQueue().run();

    EXPECT_EQ(sys.driver().stats().replications.value(), 1u);
    // GPU 1 owns a frame now (the replica) and reads locally.
    EXPECT_EQ(sys.driver().residentPages(1), 1u);
    const Pte *pte = sys.gpu(1).localPageTable().findValid(10);
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(ownerOf(pte->pfn()), 1u);
    EXPECT_FALSE(pte->writable());

    const auto locals = sys.gpu(1).stats().localAccesses.value();
    sys.gpu(1).access(0, vaOf(10), false);
    sys.eventQueue().run();
    EXPECT_EQ(sys.gpu(1).stats().localAccesses.value(), locals + 1);
    EXPECT_EQ(sys.gpu(1).stats().remoteAccesses.value(), 0u);
}

TEST(Replication, WriteCollapsesReplicas)
{
    MultiGpuSystem sys(replCfg());
    // Home on GPU 0; replicas on GPUs 1 and 2.
    sys.gpu(0).access(0, vaOf(20), false);
    sys.eventQueue().run();
    sys.gpu(1).access(0, vaOf(20), false);
    sys.eventQueue().run();
    sys.gpu(2).access(0, vaOf(20), false);
    sys.eventQueue().run();
    ASSERT_EQ(sys.driver().stats().replications.value(), 2u);

    // GPU 2 writes: all replicas collapse onto GPU 2.
    const auto completed = sys.gpu(2).completedAccesses();
    sys.gpu(2).access(0, vaOf(20), true);
    sys.eventQueue().run();
    EXPECT_EQ(sys.gpu(2).completedAccesses(), completed + 1);
    EXPECT_EQ(sys.driver().stats().collapses.value(), 1u);

    // Exactly one frame remains, on the writer, writable.
    EXPECT_EQ(sys.driver().residentPages(0), 0u);
    EXPECT_EQ(sys.driver().residentPages(1), 0u);
    EXPECT_EQ(sys.driver().residentPages(2), 1u);
    const Pte *pte = sys.gpu(2).localPageTable().findValid(20);
    ASSERT_NE(pte, nullptr);
    EXPECT_TRUE(pte->writable());
    // The stale replica holders lost their mappings.
    EXPECT_FALSE(sys.gpu(0).hasValidMapping(20));
    EXPECT_FALSE(sys.gpu(1).hasValidMapping(20));
}

TEST(Replication, WriterWithReadReplicaUpgradesViaCollapse)
{
    MultiGpuSystem sys(replCfg());
    sys.gpu(0).access(0, vaOf(30), false);
    sys.eventQueue().run();
    sys.gpu(1).access(0, vaOf(30), false);
    sys.eventQueue().run();

    // GPU 1 holds a read-only replica and now writes to the page: the
    // write-permission fault must trigger a collapse, not data
    // corruption through the read-only translation.
    const auto completed = sys.gpu(1).completedAccesses();
    sys.gpu(1).access(0, vaOf(30), true);
    sys.eventQueue().run();
    EXPECT_EQ(sys.gpu(1).completedAccesses(), completed + 1);
    EXPECT_GT(sys.gpu(1).stats().writePermissionFaults.value(), 0u);
    const Pte *pte = sys.gpu(1).localPageTable().findValid(30);
    ASSERT_NE(pte, nullptr);
    EXPECT_TRUE(pte->writable());
    EXPECT_EQ(sys.driver().residentPages(0), 0u);
    EXPECT_EQ(sys.driver().residentPages(1), 1u);
}

TEST(Replication, WriteToUnreplicatedRemotePageStaysRemote)
{
    MultiGpuSystem sys(replCfg());
    sys.gpu(0).access(0, vaOf(40), false);
    sys.eventQueue().run();
    // GPU 1's first touch is a WRITE: no replica exists, so it gets a
    // writable remote mapping instead of a collapse.
    sys.gpu(1).access(0, vaOf(40), true);
    sys.eventQueue().run();
    EXPECT_EQ(sys.driver().stats().collapses.value(), 0u);
    EXPECT_EQ(sys.driver().stats().remoteMappings.value(), 1u);
    EXPECT_EQ(sys.gpu(1).stats().remoteAccesses.value(), 1u);
    // Ownership never moved.
    EXPECT_EQ(sys.driver().residentPages(0), 1u);
    EXPECT_EQ(sys.driver().residentPages(1), 0u);
}

TEST(Replication, RacingReadFaultsReuseTheReplicaFrame)
{
    // Two read faults in flight for one (GPU, page) once made each
    // other's replica grant stale, so every delivery re-faulted into a
    // fresh frame until the GPU ran out of memory. With the oracle on,
    // the run must also stay translation-coherent.
    CliParse parsed =
        parseCli({"--app", "PR", "--scheme", "replication", "--gpus",
                  "8", "--scale", "0.05", "--oracle"});
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const CliOptions &opts = *parsed.options;
    MultiGpuSystem sys(opts.config);
    const SimResults r = sys.run(Workload::byName(opts.app, opts.scale));
    EXPECT_EQ(r.accesses, r.localAccesses + r.remoteAccesses);
    EXPECT_GT(sys.driver().stats().replications.value(), 0u);
    EXPECT_GT(sys.oracle()->checks(), 0u);
}

} // namespace
} // namespace idyll
