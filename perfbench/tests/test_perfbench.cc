/**
 * @file
 * Tests of the benchmark's own logic: metric-name rules, zero-base
 * ratios, the paper-gap metric on a hand-built grid, and the mirror
 * sink's agreement with a real traced run.
 */

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>

#include "mirror.hh"
#include "report.hh"
#include "workloads.hh"

using namespace perfbench;

TEST(MetricNames, AcceptTheBenchmarkCharset)
{
    EXPECT_TRUE(validMetricName("sim_accesses_per_s"));
    EXPECT_TRUE(validMetricName("tlb.mirror_agree_ratio"));
    EXPECT_TRUE(validMetricName("core.irmb.op_ns"));
    EXPECT_TRUE(validMetricName("9lives-ok"));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
}

TEST(MetricNames, RejectOutsideTheLimits)
{
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_FALSE(validMetricName(".leading_dot"));
    EXPECT_FALSE(validMetricName("_leading_underscore"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/name"));
    EXPECT_FALSE(validMetricName("percent%"));
}

TEST(Ratios, ZeroBaseIsZero)
{
    EXPECT_EQ(ratio(5.0, 0.0), 0.0);
    EXPECT_EQ(ratio(0.0, 0.0), 0.0);
    EXPECT_EQ(perKilo(3.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(ratio(3.0, 4.0), 0.75);
    EXPECT_DOUBLE_EQ(perKilo(3.0, 4.0), 750.0);
    EXPECT_EQ(OpTime{}.nsPerCall(), 0.0);
    EXPECT_EQ(MirrorStats{}.agreeRatio(), 1.0);
}

TEST(Medians, OddEvenAndEmpty)
{
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Values, KeepFirstOrderAndOverwrite)
{
    Values v;
    v.set("b", 1.0);
    v.set("a", 2.0);
    v.set("b", 3.0);
    EXPECT_EQ(v.toJson(), "{\"b\":3,\"a\":2}");
    EXPECT_EQ(v.get("a"), 2.0);
    EXPECT_THROW(v.get("c"), std::out_of_range);
    EXPECT_THROW(v.set("bad name", 1.0), std::invalid_argument);
}

TEST(PaperGap, ZeroWhenTheGridMatchesThePaper)
{
    std::map<std::string, double> gains;
    for (const PaperPoint &p : paperFig11())
        gains[p.scheme] = p.gainPct;
    EXPECT_DOUBLE_EQ(paperGapPp(gains), 0.0);
}

TEST(PaperGap, HandBuiltGrid)
{
    // Two apps per scheme; speedups chosen so each average gain is a
    // round number: only-lazy +60, only-dir +20, inmem +70, idyll +90,
    // zero +73.
    const std::map<std::string, std::vector<double>> speedups = {
        {"only-lazy", {1.5, 1.7}}, {"only-dir", {1.1, 1.3}},
        {"inmem", {1.6, 1.8}},     {"idyll", {1.8, 2.0}},
        {"zero", {1.73, 1.73}},
    };
    std::map<std::string, double> gains;
    for (const auto &[scheme, s] : speedups)
        gains[scheme] = averageGainPct(s);
    EXPECT_NEAR(gains["idyll"], 90.0, 1e-9);
    // |60-55.8| + |20-27.3| + |70-70| + |90-69.9| + |73-73| = 31.6
    EXPECT_NEAR(paperGapPp(gains), 31.6 / 5.0, 1e-9);
}

TEST(PaperGap, MissingSchemeThrows)
{
    EXPECT_THROW(paperGapPp({{"idyll", 69.9}}), std::invalid_argument);
}

TEST(Mirror, AgreesWithPingpongTrace)
{
    const MirrorStats m = mirrorRun("pingpong", 0.05, 7);
    EXPECT_GT(m.tlbProbe.calls, 0u);
    EXPECT_GT(m.tlbFill.calls, 0u);
    EXPECT_GT(m.netSend.calls, 0u);
    EXPECT_EQ(m.probesAgreed, m.tlbProbe.calls);
    EXPECT_EQ(m.agreeRatio(), 1.0);
}

TEST(Workloads, UnknownNameThrows)
{
    RunOptions opts;
    opts.workload = "no-such-workload";
    EXPECT_THROW(runWorkload(opts), std::invalid_argument);
}
