/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/metrics.hh"

namespace idyll
{
namespace
{

TEST(Counter, StartsAtZeroAndIncrements)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(AvgStat, TracksSumCountMeanMinMax)
{
    AvgStat a;
    EXPECT_EQ(a.mean(), 0.0);
    a.sample(10.0);
    a.sample(20.0);
    a.sample(30.0);
    EXPECT_DOUBLE_EQ(a.sum(), 60.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 20.0);
}

TEST(AvgStat, ResetClearsEverything)
{
    AvgStat a;
    a.sample(5.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(MetricsGroup, DumpsRegisteredStats)
{
    MetricsGroup group("gpu0");
    Counter c{group, "faults"};
    c.inc(7);
    AvgStat a{group, "latency"};
    a.sample(4.0);

    std::ostringstream os;
    group.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("gpu0.faults 7"), std::string::npos);
    EXPECT_NE(out.find("gpu0.latency.mean 4"), std::string::npos);
}

TEST(MetricsGroup, DumpsStatsByNameAndChildrenInAttachOrder)
{
    MetricsGroup root("sys");
    MetricsGroup b("b");
    MetricsGroup a("a");
    root.addChild(b);
    root.addChild(a);
    Counter bx{b, "x"};
    Counter ay{a, "y"};
    Counter ax{a, "x"};
    ax.inc(1);
    ay.inc(2);
    bx.inc(3);

    std::ostringstream os;
    root.dump(os);
    EXPECT_EQ(os.str(), "sys.b.x 3\nsys.a.x 1\nsys.a.y 2\n");
}

TEST(MetricsGroup, ToJsonEmitsLabelsCountersAndChildren)
{
    MetricsGroup root("system");
    MetricsGroup gpu("gpu0");
    root.addChild(gpu);
    gpu.setLabel("gpu", "0");
    Counter c{gpu, "faults"};
    c.inc(5);
    AvgStat a{gpu, "latency"};
    a.sample(2.0);
    a.sample(4.0);

    const std::string json = root.toJson();
    EXPECT_NE(json.find("\"children\""), std::string::npos);
    EXPECT_NE(json.find("\"gpu0\""), std::string::npos);
    EXPECT_NE(json.find("\"labels\": {\"gpu\": \"0\"}"),
              std::string::npos);
    EXPECT_NE(json.find("\"faults\": 5"), std::string::npos);
    EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
}

} // namespace
} // namespace idyll
