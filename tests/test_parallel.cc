/**
 * @file
 * Tests for the parallel experiment runner: job-count resolution,
 * deterministic grid ordering, and the core contract that parallel
 * suite output is bit-identical to serial output.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "sim/config.hh"

namespace idyll
{
namespace
{

/** A grid small enough for the test suite but with real dynamics. */
SystemConfig
tinyConfig(SystemConfig cfg)
{
    cfg = scaledForSim(cfg);
    cfg.cusPerGpu = 4;
    cfg.warpsPerCu = 2;
    return cfg;
}

std::vector<SchemePoint>
tinySchemes()
{
    return {
        {"baseline", tinyConfig(SystemConfig::baseline())},
        {"idyll", tinyConfig(SystemConfig::idyllFull())},
        {"zero", tinyConfig(SystemConfig::zeroLatencyInval())},
    };
}

TEST(ResolveJobs, ExplicitRequestWins)
{
    setenv("IDYLL_JOBS", "7", 1);
    EXPECT_EQ(resolveJobs(3), 3u);
    unsetenv("IDYLL_JOBS");
}

TEST(ResolveJobs, EnvironmentOverridesAuto)
{
    setenv("IDYLL_JOBS", "7", 1);
    EXPECT_EQ(resolveJobs(0), 7u);
    setenv("IDYLL_JOBS", "bogus", 1);
    EXPECT_GE(resolveJobs(0), 1u); // falls back to hardware
    unsetenv("IDYLL_JOBS");
}

TEST(ResolveJobs, AutoIsAtLeastOne)
{
    unsetenv("IDYLL_JOBS");
    EXPECT_GE(resolveJobs(0), 1u);
}

TEST(ParallelRunner, EmptyGridsAreWellFormed)
{
    const ParallelRunner runner(2);
    EXPECT_TRUE(runner.runGrid({}, {}, 1.0).empty());
    const auto noApps = runner.runGrid({}, tinySchemes(), 1.0);
    ASSERT_EQ(noApps.size(), 3u);
    EXPECT_TRUE(noApps[0].empty());
}

TEST(ParallelRunner, ResultsLandInTheirGridSlot)
{
    const std::vector<std::string> apps = {"BS", "SC"};
    const auto schemes = tinySchemes();
    const auto grid = ParallelRunner(4).runGrid(apps, schemes, 0.02);
    ASSERT_EQ(grid.size(), schemes.size());
    for (std::size_t s = 0; s < schemes.size(); ++s) {
        ASSERT_EQ(grid[s].size(), apps.size());
        for (std::size_t a = 0; a < apps.size(); ++a) {
            EXPECT_EQ(grid[s][a].app, apps[a]);
            EXPECT_EQ(grid[s][a].scheme, schemes[s].label);
            EXPECT_GT(grid[s][a].execTicks, 0u);
        }
    }
}

/**
 * The tentpole contract: a parallel suite run produces exactly the
 * same results as a serial one, for every cell of a 2-app x 3-scheme
 * grid. Compared via toJson(), which serializes every result field
 * with full double precision.
 */
TEST(ParallelRunner, ParallelOutputBitIdenticalToSerial)
{
    const std::vector<std::string> apps = {"BS", "SC"};
    const auto schemes = tinySchemes();

    const auto serial = ParallelRunner(1).runGrid(apps, schemes, 0.02);
    const auto parallel = ParallelRunner(4).runGrid(apps, schemes, 0.02);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t s = 0; s < serial.size(); ++s) {
        ASSERT_EQ(serial[s].size(), parallel[s].size());
        for (std::size_t a = 0; a < serial[s].size(); ++a) {
            EXPECT_EQ(serial[s][a].toJson(), parallel[s][a].toJson())
                << "mismatch at scheme " << schemes[s].label
                << ", app " << apps[a];
        }
    }
}

/** Repeated parallel runs are deterministic too. */
TEST(ParallelRunner, ParallelRunsAreReproducible)
{
    const std::vector<std::string> apps = {"KM"};
    const auto schemes = tinySchemes();
    const auto first = ParallelRunner(3).runGrid(apps, schemes, 0.02);
    const auto second = ParallelRunner(3).runGrid(apps, schemes, 0.02);
    for (std::size_t s = 0; s < first.size(); ++s)
        EXPECT_EQ(first[s][0].toJson(), second[s][0].toJson());
}

} // namespace
} // namespace idyll
