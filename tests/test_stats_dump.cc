/**
 * @file
 * Tests for the system-wide statistics dump.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/system.hh"

namespace idyll
{
namespace
{

TEST(StatsDump, ContainsDriverAndPerGpuSections)
{
    SystemConfig cfg = SystemConfig::idyllFull();
    cfg.cusPerGpu = 4;
    cfg.warpsPerCu = 2;
    cfg.accessCounterThreshold = 8;
    cfg.prepopulate = Prepopulate::HomeShard;
    MultiGpuSystem sys(cfg);
    sys.run(Workload::byName("KM", 0.05));

    std::ostringstream os;
    sys.dumpStats(os);
    const std::string out = os.str();

    EXPECT_NE(out.find("system.driver.migrations"), std::string::npos);
    EXPECT_NE(out.find("system.driver.invalSent"), std::string::npos);
    EXPECT_NE(out.find("system.gpu0.accesses"), std::string::npos);
    EXPECT_NE(out.find("system.gpu3.gmmu.demandWalks"),
              std::string::npos);
    EXPECT_NE(out.find("system.gpu0.irmb.inserts"), std::string::npos);
    EXPECT_NE(out.find("demandTlbMissLatency.mean"), std::string::npos);
}

TEST(StatsDump, PrintsEveryDeclaredStatistic)
{
    // Statistics that reach the dump only by being declared in their
    // component's group: no list names them.
    SystemConfig cfg = SystemConfig::idyllFull();
    cfg.cusPerGpu = 4;
    cfg.warpsPerCu = 2;
    cfg.accessCounterThreshold = 8;
    cfg.prepopulate = Prepopulate::HomeShard;
    MultiGpuSystem sys(cfg);
    sys.run(Workload::byName("KM", 0.05));

    std::ostringstream os;
    sys.dumpStats(os);
    const std::string out = os.str();
    for (const char *line :
         {"\nsystem.driver.invalAcks ", "\nsystem.gpu0.mshrRetries ",
          "\nsystem.gpu0.gmmu.batchWalks ", "\nsystem.gpu0.irmb.merges ",
          "\nsystem.driver.directory.broadcastAvoided "})
        EXPECT_NE(out.find(line), std::string::npos) << line;
}

TEST(StatsDump, ValuesMatchDirectReads)
{
    SystemConfig cfg = SystemConfig::baseline();
    cfg.cusPerGpu = 4;
    cfg.warpsPerCu = 2;
    cfg.prepopulate = Prepopulate::HomeShard;
    cfg.accessCounterThreshold = 8;
    MultiGpuSystem sys(cfg);
    sys.run(Workload::byName("BS", 0.05));

    std::ostringstream os;
    sys.dumpStats(os);
    const std::string out = os.str();
    std::ostringstream expect;
    expect << "system.gpu0.accesses "
           << sys.gpu(0).stats().accesses.value();
    EXPECT_NE(out.find(expect.str()), std::string::npos);
}

TEST(StatsDump, WorksBeforeAnyRun)
{
    SystemConfig cfg;
    cfg.cusPerGpu = 2;
    MultiGpuSystem sys(cfg);
    std::ostringstream os;
    sys.dumpStats(os);
    EXPECT_NE(os.str().find("system.driver.farFaults 0"),
              std::string::npos);
}

} // namespace
} // namespace idyll
