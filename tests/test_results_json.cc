/**
 * @file
 * Tests for the JSON results emitter: escaping, per-run toJson(), the
 * suite-level writer, and the sweep registry behind idyll_sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "harness/cli.hh"
#include "harness/parallel.hh"
#include "harness/sweeps.hh"
#include "harness/tables.hh"
#include "sim/json.hh"

namespace idyll
{
namespace
{

TEST(Json, EscapeHandlesSpecials)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, ToJsonEmitsEveryHeadlineField)
{
    SimResults r;
    r.app = "PR";
    r.scheme = "idyll";
    r.execTicks = 12345;
    r.instructions = 678;
    r.mpki = 1.25;
    r.sharingBuckets = {10, 20, 30};
    const std::string json = r.toJson();

    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"app\": \"PR\""), std::string::npos);
    EXPECT_NE(json.find("\"scheme\": \"idyll\""), std::string::npos);
    EXPECT_NE(json.find("\"execTicks\": 12345"), std::string::npos);
    EXPECT_NE(json.find("\"instructions\": 678"), std::string::npos);
    EXPECT_NE(json.find("\"mpki\": 1.25"), std::string::npos);
    EXPECT_NE(json.find("\"sharingBuckets\": [10, 20, 30]"),
              std::string::npos);
    EXPECT_NE(json.find("\"networkBytes\": 0"), std::string::npos);
}

TEST(Json, DoublesRoundTripExactly)
{
    SimResults r;
    r.mpki = 0.1 + 0.2; // not representable; needs max_digits10
    const std::string json = r.toJson();
    const auto pos = json.find("\"mpki\": ");
    ASSERT_NE(pos, std::string::npos);
    const double parsed = std::stod(json.substr(pos + 8));
    EXPECT_EQ(parsed, r.mpki);
}

TEST(Json, SuiteWriterShapesDocument)
{
    SimResults a, b;
    a.app = "BS";
    a.scheme = "baseline";
    b.app = "SC";
    b.scheme = "baseline";
    const std::vector<std::vector<SimResults>> grid = {{a, b}};

    std::ostringstream os;
    writeSuiteJson(os, "smoke", 0.05, {"BS", "SC"}, {"baseline"},
                   grid);
    const std::string doc = os.str();

    EXPECT_NE(doc.find("\"suite\": \"smoke\""), std::string::npos);
    EXPECT_NE(doc.find("\"scale\": 0.05"), std::string::npos);
    EXPECT_NE(doc.find("\"apps\": [\"BS\", \"SC\"]"),
              std::string::npos);
    EXPECT_NE(doc.find("\"schemes\": [\"baseline\"]"),
              std::string::npos);
    // One result object per grid cell, scheme-major.
    EXPECT_LT(doc.find("\"app\": \"BS\""), doc.find("\"app\": \"SC\""));
    // Balanced braces => structurally sound JSON.
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
              std::count(doc.begin(), doc.end(), '}'));
}

TEST(JsonDeath, SuiteWriterRejectsRaggedGrids)
{
    std::ostringstream os;
    const std::vector<std::vector<SimResults>> ragged = {{}};
    EXPECT_DEATH(
        writeSuiteJson(os, "bad", 1.0, {"BS"}, {"x", "y"}, ragged),
        "schemes");
}

TEST(Sweeps, RegistryNamesResolve)
{
    // The 20 paper figures, Table 3 and three ablations, plus smoke.
    const auto names = sweepNames();
    EXPECT_EQ(names.size(), 25u);
    for (const std::string &name : names) {
        const auto spec = sweepByName(name);
        ASSERT_TRUE(spec.has_value()) << name;
        EXPECT_EQ(spec->name, name);
    }
    EXPECT_FALSE(sweepByName("no-such-figure").has_value());
    EXPECT_TRUE(sweepByName("fig18").has_value()); // the nightly runs it

    // perfbench rebuilds the fig11 and smoke grids from their scheme
    // names: each must resolve to the very config the sweep runs.
    for (const char *name : {"fig11", "smoke"}) {
        const auto spec = sweepByName(name);
        ASSERT_TRUE(spec.has_value()) << name;
        ASSERT_EQ(spec->schemes.size(), spec->points.size()) << name;
        for (std::size_t i = 0; i < spec->points.size(); ++i) {
            const std::string &scheme = spec->schemes[i];
            const auto cfg = schemeByName(scheme);
            ASSERT_TRUE(cfg.has_value()) << name << " -> " << scheme;
            EXPECT_EQ(spec->points[i].label, scheme);
            EXPECT_TRUE(spec->points[i].cfg == scaledForSim(*cfg))
                << name << " -> " << scheme;
            EXPECT_EQ(spec->points[i].work, 1.0);
        }
        EXPECT_FALSE(spec->transform) << name;
    }
}

TEST(Sweeps, EveryPointValidates)
{
    for (const SweepSpec &spec : allSweeps()) {
        EXPECT_FALSE(spec.apps.empty()) << spec.name;
        EXPECT_FALSE(spec.points.empty()) << spec.name;
        EXPECT_FALSE(spec.expectation.empty()) << spec.name;
        EXPECT_FALSE(spec.table.columns.empty()) << spec.name;
        ASSERT_EQ(spec.schemes.size(), spec.points.size()) << spec.name;
        for (std::size_t i = 0; i < spec.points.size(); ++i) {
            const SchemePoint &point = spec.points[i];
            EXPECT_EQ(spec.schemes[i], point.label) << spec.name;
            EXPECT_GT(point.work, 0.0) << spec.name << "/" << point.label;
            EXPECT_NO_THROW(point.cfg.validate())
                << spec.name << "/" << point.label;
            // Every point runs simulation-scaled.
            EXPECT_EQ(point.cfg.prepopulate, Prepopulate::HomeShard)
                << spec.name << "/" << point.label;
        }
    }
}

TEST(Sweeps, LabelsAreUniqueWithinASpec)
{
    for (const SweepSpec &spec : allSweeps()) {
        std::vector<std::string> labels = spec.schemes;
        std::sort(labels.begin(), labels.end());
        EXPECT_EQ(std::adjacent_find(labels.begin(), labels.end()),
                  labels.end())
            << spec.name;
        std::vector<std::string> columns;
        for (const SweepColumn &column : spec.table.columns)
            columns.push_back(column.label);
        std::sort(columns.begin(), columns.end());
        EXPECT_EQ(std::adjacent_find(columns.begin(), columns.end()),
                  columns.end())
            << spec.name;
    }
}

TEST(Sweeps, SmokeSweepIsCiSized)
{
    const auto spec = sweepByName("smoke");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->apps.size(), 2u);
    ASSERT_EQ(spec->points.size(), 3u);
    EXPECT_EQ(spec->schemes,
              (std::vector<std::string>{"baseline", "idyll", "zero"}));
    // Schemes come back simulation-scaled.
    EXPECT_EQ(spec->points[0].cfg.accessCounterThreshold,
              kScaledThreshold256);
}

TEST(Sweeps, Fig11MatchesThePapersGrid)
{
    const auto spec = sweepByName("fig11");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->apps, Workload::appNames()); // Table 3's apps
    // The paper's six schemes plus the two L2-policy presets
    // (dead-entry eviction, sub-entry sharing) on top of IDYLL.
    EXPECT_EQ(spec->schemes,
              (std::vector<std::string>{"baseline", "only-lazy",
                                        "only-dir", "inmem", "idyll",
                                        "idyll+dead", "idyll+sub",
                                        "zero"}));
}

TEST(Sweeps, Fig17ComparesL2TlbPolicies)
{
    // The paper's 2048-entry, 64-way L2 TLB under baseline and IDYLL,
    // plus sub-entry sharing and L2-only dead-entry eviction on it.
    const auto spec = sweepByName("fig17");
    ASSERT_TRUE(spec.has_value());
    ASSERT_EQ(spec->points.size(), 4u);
    for (const SchemePoint &point : spec->points) {
        EXPECT_EQ(point.cfg.l2Tlb.entries, 2048u) << point.label;
        EXPECT_EQ(point.cfg.l2Tlb.ways, 64u) << point.label;
        EXPECT_FALSE(point.cfg.gmmu.deadEntryEviction) << point.label;
    }
    EXPECT_EQ(spec->points[0].cfg.invalApply, InvalApply::Immediate);
    for (std::size_t i = 1; i < 4; ++i)
        EXPECT_EQ(spec->points[i].cfg.invalApply, InvalApply::Lazy);
    EXPECT_EQ(spec->points[1].cfg.l2Tlb.subEntries, 1u);
    EXPECT_FALSE(spec->points[1].cfg.l2Tlb.deadEntryEviction);
    EXPECT_EQ(spec->points[2].cfg.l2Tlb.subEntries, 4u);
    EXPECT_TRUE(spec->points[3].cfg.l2Tlb.deadEntryEviction);
}

TEST(Sweeps, PointScaleAndInputTransformMatchDirectRuns)
{
    // Large enough that halving the work moves BS off the 50-item
    // floor, so a dropped work factor changes the result.
    const std::string app = "BS";
    const double scale = 0.1;
    ASSERT_NE(Workload::byName(app, scale).params().itemsPerCu,
              Workload::byName(app, scale / 2).params().itemsPerCu);
    const ParallelRunner serial(1);

    // Fig 18's 8-GPU IDYLL cell runs at 4 / 8 of the sweep's scale.
    const auto fig18 = sweepByName("fig18");
    ASSERT_TRUE(fig18.has_value());
    const SchemePoint &cell = fig18->points[3];
    ASSERT_EQ(cell.label, "idyll-8gpu");
    SystemConfig cfg18 = scaledForSim(SystemConfig::idyllFull());
    cfg18.numGpus = 8;
    EXPECT_TRUE(cell.cfg == cfg18);
    SimResults direct18 = runOnce(app, cfg18, scale * 4.0 / 8.0);
    const SimResults swept18 =
        serial.runGrid({app}, {cell}, scale, fig18->transform)[0][0];
    direct18.scheme = swept18.scheme;
    EXPECT_EQ(swept18.toJson(), direct18.toJson());

    // Fig 21 runs 2 MB pages on inputs with 8x fewer (larger) pages.
    const auto fig21 = sweepByName("fig21");
    ASSERT_TRUE(fig21.has_value());
    ASSERT_TRUE(static_cast<bool>(fig21->transform));
    SystemConfig cfg21 = scaledForSim(SystemConfig::idyllFull());
    cfg21.pageBits = 21;
    EXPECT_TRUE(fig21->points[1].cfg == cfg21);
    AppParams params = Workload::byName(app, scale).params();
    params.footprintPages =
        std::max<std::uint64_t>(params.footprintPages / 8, 256);
    params.hotPages = std::max<std::uint64_t>(params.hotPages / 8,
                                              params.hotPages ? 8 : 0);
    SimResults direct21 = runOnce(Workload{params}, cfg21);
    const SimResults swept21 = serial.runGrid(
        {app}, {fig21->points[1]}, scale, fig21->transform)[0][0];
    direct21.scheme = swept21.scheme;
    EXPECT_EQ(swept21.toJson(), direct21.toJson());
}

TEST(Sweeps, TablePrintsOneRowPerAppAndAverage)
{
    const auto spec = sweepByName("smoke");
    ASSERT_TRUE(spec.has_value());
    // [point][app]: baseline 400 ticks, IDYLL 200, the oracle 100.
    std::vector<std::vector<SimResults>> grid(3);
    for (std::size_t p = 0; p < 3; ++p) {
        for (const std::string &app : spec->apps) {
            SimResults r;
            r.app = app;
            r.execTicks = 400 >> p;
            grid[p].push_back(r);
        }
    }
    std::ostringstream os;
    printSweepTable(os, *spec, grid);
    const std::string text = os.str();
    EXPECT_NE(text.find("paper expectation: " + spec->expectation),
              std::string::npos);
    EXPECT_NE(text.find("== speedup over baseline =="),
              std::string::npos);
    for (const std::string &app : spec->apps)
        EXPECT_NE(text.find(app), std::string::npos) << app;
    EXPECT_NE(text.find("Ave.               2.000         4.000"),
              std::string::npos)
        << text;
}

} // namespace
} // namespace idyll
