/**
 * @file
 * Tests for the harness layer: result tables, runner helpers, and the
 * SimResults aggregation contract.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "harness/system.hh"
#include "harness/tables.hh"

namespace idyll
{
namespace
{

TEST(Tables, MeanAndGeomean)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Tables, ResultTableRendersRowsAndAverage)
{
    ResultTable table("demo", {"a", "b"});
    table.addRow("x", {1.0, 2.0});
    table.addRow("y", {3.0, 4.0});
    table.addAverageRow();
    std::ostringstream os;
    table.print(os, 1);
    const std::string out = os.str();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("x"), std::string::npos);
    EXPECT_NE(out.find("Ave."), std::string::npos);
    EXPECT_NE(out.find("2.0"), std::string::npos); // avg of column a
    EXPECT_NE(out.find("3.0"), std::string::npos); // avg of column b
}

TEST(TablesDeath, RowArityMustMatchColumns)
{
    ResultTable table("demo", {"a", "b"});
    EXPECT_DEATH(table.addRow("x", {1.0}), "values");
}

TEST(Runner, ScaledForSimAppliesScalingKnobs)
{
    const SystemConfig cfg = scaledForSim(SystemConfig::baseline());
    EXPECT_EQ(cfg.accessCounterThreshold, kScaledThreshold256);
    EXPECT_EQ(cfg.prepopulate, Prepopulate::HomeShard);
    // Everything else untouched.
    EXPECT_EQ(cfg.numGpus, 4u);
    EXPECT_EQ(cfg.l2Tlb.entries, 512u);
}

TEST(Runner, BenchScaleReadsEnvironment)
{
    unsetenv("IDYLL_BENCH_SCALE");
    EXPECT_DOUBLE_EQ(benchScale(), 1.0);
    setenv("IDYLL_BENCH_SCALE", "0.25", 1);
    EXPECT_DOUBLE_EQ(benchScale(), 0.25);
    setenv("IDYLL_BENCH_SCALE", "bogus", 1);
    EXPECT_DOUBLE_EQ(benchScale(), 1.0);
    unsetenv("IDYLL_BENCH_SCALE");
}

TEST(Runner, RunSuiteShapesResults)
{
    SystemConfig cfg = scaledForSim(SystemConfig::baseline());
    cfg.cusPerGpu = 4;
    cfg.warpsPerCu = 2;
    auto results =
        ParallelRunner().runGrid({"BS", "SC"}, {{"base", cfg}}, 0.02);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_EQ(results[0].size(), 2u);
    EXPECT_EQ(results[0][0].app, "BS");
    EXPECT_EQ(results[0][1].app, "SC");
    EXPECT_EQ(results[0][0].scheme, "base");
    EXPECT_GT(results[0][0].execTicks, 0u);
}

TEST(Results, SpeedupAndShares)
{
    SimResults base, other;
    base.execTicks = 200;
    other.execTicks = 100;
    EXPECT_DOUBLE_EQ(other.speedupOver(base), 2.0);
    other.demandWalks = 75;
    other.invalWalks = 25;
    EXPECT_DOUBLE_EQ(other.invalWalkShare(), 0.25);
}

TEST(Results, CollectedFieldsAreInternallyConsistent)
{
    SystemConfig cfg = scaledForSim(SystemConfig::baseline());
    cfg.cusPerGpu = 8;
    cfg.warpsPerCu = 4;
    MultiGpuSystem sys(cfg);
    SimResults r = sys.run(Workload::byName("KM", 0.05));

    EXPECT_EQ(r.app, "KM");
    EXPECT_EQ(r.scheme, "Baseline");
    EXPECT_EQ(r.accesses, r.localAccesses + r.remoteAccesses);
    EXPECT_GT(r.instructions, r.accesses); // computeCycles + 1 each
    EXPECT_GE(r.l2Misses, r.demandTlbMisses);
    EXPECT_GT(r.mpki, 0.0);
    EXPECT_GT(r.networkBytes, 0u);
    // Latency aggregates agree.
    EXPECT_NEAR(r.demandMissLatencyAvg * r.demandTlbMisses,
                r.demandMissLatencyTotal,
                r.demandMissLatencyTotal * 1e-9 + 1.0);
}

} // namespace
} // namespace idyll
