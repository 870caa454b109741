/**
 * @file
 * Unit tests for SystemConfig presets and validation.
 */

#include <gtest/gtest.h>

#include "harness/system.hh"
#include "sim/config.hh"

namespace idyll
{
namespace
{

TEST(Config, DefaultsMatchTable2)
{
    SystemConfig cfg;
    EXPECT_EQ(cfg.numGpus, 4u);
    EXPECT_EQ(cfg.cusPerGpu, 64u);
    EXPECT_EQ(cfg.l1Tlb.entries, 32u);
    EXPECT_EQ(cfg.l2Tlb.entries, 512u);
    EXPECT_EQ(cfg.l2Tlb.ways, 16u);
    EXPECT_EQ(cfg.gmmu.walkerThreads, 8u);
    // The old shared 128-entry PWC became split per-level MMU caches;
    // the default budget stays in the same ballpark (120 entries).
    ASSERT_EQ(cfg.gmmu.mmuCache.size(), 4u);
    EXPECT_EQ(cfg.gmmu.mmuCache[0].entries, 64u);
    EXPECT_EQ(cfg.gmmu.mmuCache[0].ways, 8u);
    EXPECT_EQ(cfg.gmmu.mmuCache[3].entries, 8u);
    EXPECT_EQ(cfg.gmmu.walkQueueEntries, 64u);
    EXPECT_EQ(cfg.gmmu.walkQueueRetryLatency, 8u);
    EXPECT_EQ(cfg.gmmu.perLevelLatency, 100u);
    EXPECT_EQ(cfg.l2Tlb.subEntries, 1u);
    EXPECT_FALSE(cfg.l2Tlb.deadEntryEviction);
    EXPECT_FALSE(cfg.gmmu.deadEntryEviction);
    EXPECT_EQ(cfg.accessCounterThreshold, 256u);
    EXPECT_EQ(cfg.pageSize(), 4096u);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, PresetsSelectSchemes)
{
    EXPECT_EQ(SystemConfig::baseline().invalFilter,
              InvalFilter::Broadcast);
    EXPECT_EQ(SystemConfig::baseline().invalApply,
              InvalApply::Immediate);
    EXPECT_EQ(SystemConfig::onlyLazy().invalApply, InvalApply::Lazy);
    EXPECT_EQ(SystemConfig::onlyDirectory().invalFilter,
              InvalFilter::InPteDirectory);
    EXPECT_EQ(SystemConfig::idyllFull().invalFilter,
              InvalFilter::InPteDirectory);
    EXPECT_EQ(SystemConfig::idyllFull().invalApply, InvalApply::Lazy);
    EXPECT_EQ(SystemConfig::idyllInMem().invalFilter,
              InvalFilter::InMemDirectory);
    EXPECT_EQ(SystemConfig::zeroLatencyInval().invalApply,
              InvalApply::ZeroLatency);
}

TEST(Config, SchemeNamesAreStable)
{
    EXPECT_EQ(schemeName(SystemConfig::baseline()), "Baseline");
    EXPECT_EQ(schemeName(SystemConfig::idyllFull()), "IDYLL");
    EXPECT_EQ(schemeName(SystemConfig::idyllInMem()), "IDYLL-InMem");
    EXPECT_EQ(schemeName(SystemConfig::onlyLazy()), "Broadcast+Lazy");
    EXPECT_EQ(schemeName(SystemConfig::onlyDirectory()), "InPTE");
    SystemConfig repl;
    repl.pageReplication = true;
    EXPECT_EQ(schemeName(repl), "Replication");
}

TEST(Config, LargePageSize)
{
    SystemConfig cfg;
    cfg.pageBits = 21;
    EXPECT_EQ(cfg.pageSize(), 2u * 1024 * 1024);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, DescribeMentionsKeyParameters)
{
    const std::string text = SystemConfig::baseline().describe();
    EXPECT_NE(text.find("L2 TLB"), std::string::npos);
    EXPECT_NE(text.find("512 entries"), std::string::npos);
    EXPECT_NE(text.find("Access counter threshold 256"),
              std::string::npos);
    // Table 2's IDYLL structures.
    EXPECT_NE(text.find("32 merged entries x 16 offsets = 720 bytes"),
              std::string::npos);
    EXPECT_NE(text.find("In-PTE directory bits    11"), std::string::npos);
    EXPECT_NE(text.find("VM-Cache                 64 entries, 4-way"),
              std::string::npos);
}

/** validate() must raise ConfigError mentioning the bad field. */
void
expectRejected(const SystemConfig &cfg, const std::string &needle)
{
    try {
        cfg.validate();
        FAIL() << "expected ConfigError mentioning '" << needle << "'";
    } catch (const ConfigError &err) {
        EXPECT_NE(std::string(err.what()).find(needle),
                  std::string::npos)
            << "actual message: " << err.what();
    }
}

TEST(Config, RejectsBadGeometry)
{
    SystemConfig cfg;
    cfg.numGpus = 0;
    expectRejected(cfg, "numGpus");

    cfg = SystemConfig{};
    cfg.numGpus = 65; // holder sets are 64-bit masks
    expectRejected(cfg, "numGpus");

    cfg = SystemConfig{};
    cfg.shards = 0; // 0 shards is meaningless; 1 = serial
    expectRejected(cfg, "shards");

    cfg = SystemConfig{};
    cfg.pageBits = 14;
    expectRejected(cfg, "pageBits");

    cfg = SystemConfig{};
    cfg.l2Tlb.entries = 100; // not a multiple of 16 ways
    expectRejected(cfg, "multiple");

    cfg = SystemConfig{};
    cfg.directoryBits = 12;
    expectRejected(cfg, "directoryBits");

    cfg = SystemConfig{};
    cfg.gmmu.walkerThreads = 0;
    expectRejected(cfg, "walker");

    cfg = SystemConfig{};
    cfg.irmb.offsetsPerBase = 17; // paper layout caps a base at 16
    expectRejected(cfg, "offsets per base");
}

TEST(Config, ReportsEveryViolationAtOnce)
{
    SystemConfig cfg;
    cfg.numGpus = 0;
    cfg.pageBits = 14;
    cfg.gmmu.walkerThreads = 0;
    try {
        cfg.validate();
        FAIL() << "expected ConfigError";
    } catch (const ConfigError &err) {
        EXPECT_EQ(err.violations().size(), 3u) << err.what();
        const std::string what = err.what();
        EXPECT_NE(what.find("numGpus"), std::string::npos);
        EXPECT_NE(what.find("pageBits"), std::string::npos);
        EXPECT_NE(what.find("walker"), std::string::npos);
    }
}

TEST(Config, ValidatesFaultPlanUpFront)
{
    SystemConfig cfg;
    cfg.integrity.faultPlan = "inval.teleport"; // bad action
    expectRejected(cfg, "fault plan");

    // Drops without a retry timeout would hang migrations.
    cfg = SystemConfig{};
    cfg.integrity.faultPlan = "inval.drop@0.1";
    expectRejected(cfg, "invalRetryTimeout");

    cfg.integrity.invalRetryTimeout = 20000;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, AliasingDirectoryValidatesSilently)
{
    // Fewer directory bits than GPUs aliases GPUs onto shared bits:
    // legal (Figs 18/19 study it on purpose) and not worth a warning.
    SystemConfig small;
    small.invalFilter = InvalFilter::InPteDirectory;
    small.numGpus = 8;
    small.directoryBits = 4;
    SystemConfig wide = SystemConfig::idyllFull();
    wide.numGpus = 32; // directoryBits is capped at 11
    for (const SystemConfig &cfg : {small, wide}) {
        testing::internal::CaptureStderr();
        const std::vector<std::string> bad = cfg.check();
        EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
        EXPECT_TRUE(bad.empty());
    }
}

} // namespace
} // namespace idyll
