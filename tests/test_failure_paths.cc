/**
 * @file
 * Failure-injection and structural-pressure tests: out-of-memory,
 * MSHR saturation, walk-queue overflow, and pathological geometries.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "harness/system.hh"

namespace idyll
{
namespace
{

TEST(FailurePaths, GpuOutOfMemoryIsFatal)
{
    SystemConfig cfg;
    cfg.numGpus = 2;
    cfg.cusPerGpu = 2;
    cfg.warpsPerCu = 2;
    cfg.gpuMemPages = 4; // absurdly small device memory
    MultiGpuSystem sys(cfg);
    EXPECT_DEATH(
        {
            for (Vpn vpn = 0; vpn < 16; ++vpn)
                sys.gpu(0).access(0, vpn << 12, false);
            sys.eventQueue().run();
        },
        "out of memory");
}

TEST(FailurePaths, TinyMshrStillCompletesViaBacklog)
{
    SystemConfig cfg = scaledForSim(SystemConfig::baseline());
    cfg.cusPerGpu = 16;
    cfg.warpsPerCu = 8;
    cfg.l2MshrEntries = 2; // severe structural hazard
    SimResults r = runOnce("PR", cfg, 0.05);
    EXPECT_GT(r.execTicks, 0u);
    // The backlog path was actually exercised.
    MultiGpuSystem sys(cfg);
    SimResults r2 = sys.run(Workload::byName("PR", 0.05));
    std::uint64_t retries = 0;
    for (std::uint32_t g = 0; g < sys.numGpus(); ++g)
        retries += sys.gpu(g).stats().mshrRetries.value();
    EXPECT_GT(retries, 0u);
    EXPECT_EQ(r.execTicks, r2.execTicks); // and it stays deterministic
}

TEST(FailurePaths, TinyWalkQueueCountsStalls)
{
    SystemConfig cfg = scaledForSim(SystemConfig::baseline());
    cfg.cusPerGpu = 16;
    cfg.warpsPerCu = 8;
    cfg.gmmu.walkQueueEntries = 2;
    MultiGpuSystem sys(cfg);
    sys.run(Workload::byName("MT", 0.05));
    std::uint64_t stalls = 0;
    for (std::uint32_t g = 0; g < sys.numGpus(); ++g)
        stalls += sys.gpu(g).gmmu().stats().queueFullStalls.value();
    EXPECT_GT(stalls, 0u);
}

TEST(FailurePaths, SingleWalkerSerializesButCompletes)
{
    SystemConfig cfg = scaledForSim(SystemConfig::baseline());
    cfg.cusPerGpu = 8;
    cfg.warpsPerCu = 4;
    cfg.gmmu.walkerThreads = 1;
    SimResults one = runOnce("KM", cfg, 0.05);
    cfg.gmmu.walkerThreads = 8;
    SimResults eight = runOnce("KM", cfg, 0.05);
    EXPECT_GT(one.execTicks, eight.execTicks);
}

TEST(FailurePaths, MinimalIrmbGeometryWorks)
{
    SystemConfig cfg = scaledForSim(SystemConfig::idyllFull());
    cfg.cusPerGpu = 8;
    cfg.warpsPerCu = 4;
    cfg.irmb.bases = 1;
    cfg.irmb.offsetsPerBase = 1; // every insert evicts
    SimResults r = runOnce("KM", cfg, 0.05);
    EXPECT_GT(r.execTicks, 0u);
    // Every buffered invalidation still reaches the page table.
    EXPECT_GT(r.irmbWrittenBack + r.irmbElided, 0u);
}

TEST(FailurePaths, SingleGpuSystemHasNoSharingTraffic)
{
    SystemConfig cfg = scaledForSim(SystemConfig::baseline());
    cfg.numGpus = 1;
    cfg.cusPerGpu = 8;
    cfg.warpsPerCu = 4;
    SimResults r = runOnce("KM", cfg, 0.05);
    EXPECT_EQ(r.remoteAccesses, 0u);
    EXPECT_EQ(r.migrations, 0u);
    EXPECT_EQ(r.invalSent, 0u);
}

TEST(FailurePaths, TwoGpuAsymmetricCounts)
{
    SystemConfig cfg = scaledForSim(SystemConfig::baseline());
    cfg.numGpus = 2;
    cfg.cusPerGpu = 8;
    cfg.warpsPerCu = 4;
    SimResults r = runOnce("SC", cfg, 0.1);
    EXPECT_GT(r.execTicks, 0u);
    ASSERT_EQ(r.sharingBuckets.size(), 2u);
}

} // namespace
} // namespace idyll
