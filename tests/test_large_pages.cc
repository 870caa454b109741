/**
 * @file
 * Tests for 2 MB large-page support (Section 7.3): layout math,
 * end-to-end runs, and the migration cost of moving 2 MB at a time.
 */

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "harness/system.hh"

namespace idyll
{
namespace
{

SystemConfig
largeCfg()
{
    SystemConfig cfg;
    cfg.pageBits = 21;
    cfg.numGpus = 2;
    cfg.cusPerGpu = 2;
    cfg.warpsPerCu = 2;
    return cfg;
}

TEST(LargePages, SystemUsesFourLevelTables)
{
    MultiGpuSystem sys(largeCfg());
    EXPECT_EQ(sys.layout().numLevels, 4u);
    EXPECT_EQ(sys.layout().pageSize(), 2u * 1024 * 1024);
}

TEST(LargePages, TranslationAndMigrationWork)
{
    SystemConfig cfg = largeCfg();
    cfg.accessCounterThreshold = 4;
    MultiGpuSystem sys(cfg);
    const VAddr va = 5ull << 21;

    sys.gpu(0).access(0, va, false);
    sys.eventQueue().run();
    EXPECT_EQ(sys.driver().residentPages(0), 1u);

    for (int i = 0; i < 8; ++i) {
        sys.gpu(1).access(0, va + 64 * i, false);
        sys.eventQueue().run();
    }
    EXPECT_EQ(sys.driver().stats().migrations.value(), 1u);
    EXPECT_EQ(sys.driver().residentPages(1), 1u);
    // The migration moved a full 2 MB page over the interconnect.
    EXPECT_GE(sys.network().classBytes(MsgClass::PageData).value(),
              2u * 1024 * 1024);
}

TEST(LargePages, FullWorkloadRunCompletes)
{
    SystemConfig cfg = SystemConfig::idyllFull();
    cfg.pageBits = 21;
    cfg.cusPerGpu = 8;
    cfg.warpsPerCu = 4;
    cfg.accessCounterThreshold = 8;
    cfg.prepopulate = Prepopulate::HomeShard;

    AppParams params = Workload::byName("KM", 0.05).params();
    params.footprintPages /= 32;
    params.hotPages = std::max<std::uint64_t>(params.hotPages / 32, 8);
    SimResults r = runOnce(Workload{params}, cfg);
    EXPECT_GT(r.execTicks, 0u);
    EXPECT_GT(r.accesses, 0u);
}

} // namespace
} // namespace idyll
