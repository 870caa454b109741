/**
 * @file
 * Tests for the JSON reader (sim/json.hh): strict errors with byte
 * offsets, exact integers, escapes that round-trip through
 * jsonEscape, and a parse of every writer's real output.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>

#include "harness/bench_compare.hh"
#include "harness/chaos.hh"
#include "harness/runner.hh"
#include "harness/serve.hh"
#include "harness/system.hh"
#include "harness/tables.hh"
#include "sim/json.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "workloads/workload.hh"

namespace idyll
{
namespace
{

/** The error parseJson reports for @p text (which must not parse). */
JsonError
errorOf(std::string_view text)
{
    JsonError error;
    EXPECT_FALSE(parseJson(text, &error).has_value()) << text;
    return error;
}

/** Parse @p text, failing the test (with the offset) if it is bad. */
JsonValue
mustParse(const std::string &text)
{
    JsonError error;
    auto value = parseJson(text, &error);
    EXPECT_TRUE(value.has_value())
        << "byte " << error.offset << ": " << error.message << "\n"
        << text.substr(error.offset > 40 ? error.offset - 40 : 0, 80);
    return value.value_or(JsonValue());
}

TEST(JsonReader, RejectsTruncatedInput)
{
    const JsonError e = errorOf(R"({"a": [1, 2)");
    EXPECT_EQ(e.offset, 11u);
    EXPECT_EQ(e.message, "unexpected end of input");
    EXPECT_EQ(errorOf(R"({"a": "open)").offset, 11u);
    EXPECT_EQ(errorOf("").offset, 0u);
}

TEST(JsonReader, RejectsATrailingComma)
{
    EXPECT_EQ(errorOf(R"({"a": 1,})").offset, 8u);
    EXPECT_EQ(errorOf("[1, 2,]").offset, 6u);
}

TEST(JsonReader, RejectsABadEscape)
{
    const JsonError e = errorOf(R"(["a\qb"])");
    EXPECT_EQ(e.offset, 4u);
    EXPECT_EQ(e.message, "bad escape");
    EXPECT_EQ(errorOf(R"(["\u12x4"])").offset, 4u);
}

TEST(JsonReader, RejectsABareKey)
{
    const JsonError e = errorOf(R"({"a": 1, b: 2})");
    EXPECT_EQ(e.offset, 9u);
    EXPECT_EQ(e.message, "expected a quoted member name");
}

TEST(JsonReader, RejectsTrailingGarbage)
{
    EXPECT_EQ(errorOf(R"({"a": 1} x)").offset, 9u);
    EXPECT_EQ(errorOf("1 2").offset, 2u);
}

TEST(JsonReader, RejectsNonJsonNumbers)
{
    for (const char *text : {"01", "+1", "1.", ".5", "1e", "-", "nan"})
        errorOf(text);
}

TEST(JsonReader, IntegersComeBackExact)
{
    const JsonValue v = mustParse(
        R"({"max": 18446744073709551615, "host": -1,
            "min": -9223372036854775808, "big": 18446744073709551616,
            "real": 0.5})");
    EXPECT_EQ(v["max"].asU64(),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_FALSE(v["max"].asI64().has_value());
    EXPECT_EQ(v["host"].asI64(), -1);
    EXPECT_FALSE(v["host"].asU64().has_value());
    EXPECT_EQ(v["min"].asI64(),
              std::numeric_limits<std::int64_t>::min());
    // Past uint64_t, and not an integer: doubles only.
    EXPECT_FALSE(v["big"].asU64().has_value());
    EXPECT_EQ(v["big"].asDouble(), 18446744073709551616.0);
    EXPECT_FALSE(v["real"].asU64().has_value());
    EXPECT_EQ(v["real"].asDouble(), 0.5);
}

TEST(JsonReader, KeepsMemberOrderAndLooksUpByName)
{
    const JsonValue v =
        mustParse(R"({"b": [true, null], "a": {"c": "x"}})");
    ASSERT_EQ(v.members().size(), 2u);
    EXPECT_EQ(v.members()[0].key, "b");
    EXPECT_EQ(v["b"].items().size(), 2u);
    EXPECT_EQ(v["b"].items()[0].asBool(), true);
    EXPECT_TRUE(v["b"].items()[1].isNull());
    EXPECT_EQ(v["a"]["c"].asString(), "x");
    // Absent members chain to null instead of failing.
    EXPECT_TRUE(v["nope"]["deeper"].isNull());
    EXPECT_EQ(v.find("nope"), nullptr);
}

TEST(JsonReader, EscapesRoundTripThroughJsonEscape)
{
    std::string all;
    for (int c = 1; c < 0x80; ++c)
        all += static_cast<char>(c);
    all += "\xc3\xa9 \xe2\x82\xac"; // UTF-8 bytes pass through
    for (const std::string &text :
         {std::string("plain"), std::string("q\"b\\s/n\nt\t"), all}) {
        const JsonValue v = mustParse("\"" + jsonEscape(text) + "\"");
        EXPECT_EQ(v.asString(), text);
    }
    // \u escapes, a surrogate pair included, decode to UTF-8.
    EXPECT_EQ(mustParse("\"\\u00e9\\ud83d\\ude00\\/\"").asString(),
              "\xc3\xa9\xf0\x9f\x98\x80/");
    errorOf("\"\\ud83d\""); // an unpaired high surrogate
}

TEST(JsonReader, JsonNumberRoundTrips)
{
    for (const double d : {0.1 + 0.2, 1e-7, 98.7, 3.0, 1e300}) {
        const std::string text = jsonNumber(d);
        EXPECT_EQ(mustParse(text).asDouble(), d) << text;
    }
    EXPECT_EQ(jsonNumber(0.5), "0.5");
    EXPECT_EQ(jsonNumber(3.0), "3");
}

TEST(JsonReader, ParseUnsignedIsStrict)
{
    std::uint64_t n = 0;
    EXPECT_TRUE(parseUnsigned("18446744073709551615", n));
    EXPECT_EQ(n, std::numeric_limits<std::uint64_t>::max());
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "0x1",
                            "18446744073709551616"})
        EXPECT_FALSE(parseUnsigned(bad, n)) << bad;
}

// --- every writer's real output ---------------------------------------

TEST(JsonWriters, SimResultsWithLatencySamplerAndShardsParse)
{
    SystemConfig cfg = scaledForSim(SystemConfig::idyllFull());
    cfg.numGpus = 4;
    cfg.cusPerGpu = 4;
    cfg.shards = 2;
    cfg.hostStats = true;
    cfg.latency.enabled = true;
    cfg.sampler.everyCycles = 1000;
    MultiGpuSystem sys(cfg);
    const SimResults r = sys.run(Workload::byName("KM", 0.02));

    const JsonValue v = mustParse(r.toJson());
    EXPECT_EQ(v["app"].asString(), "KM");
    EXPECT_EQ(v["execTicks"].asU64(), r.execTicks);
    EXPECT_EQ(v["mpki"].asDouble(), r.mpki);
    EXPECT_EQ(v["latDemandCount"].asU64(), r.latDemandCount);
    EXPECT_EQ(v["latency"]["demand"]["count"].asU64(), r.latDemandCount);
    const JsonValue &total = v["latency"]["demand"]["total"];
    EXPECT_TRUE(total["p99"].asU64().has_value());
    EXPECT_EQ(v["samples"]["everyCycles"].asU64(), 1000u);
    EXPECT_FALSE(v["samples"]["records"].items().empty());
    bool hostChannel = false;
    for (const JsonValue &ch : v["samples"]["channels"].items())
        hostChannel = hostChannel || ch["gpu"].asI64() == -1;
    EXPECT_TRUE(hostChannel);
    const JsonValue &shards = v["shardTelemetry"];
    EXPECT_TRUE(shards["counters"]["windows"].asU64().has_value());
    EXPECT_EQ(shards["labels"]["lookahead"].asString(),
              std::to_string(std::min(cfg.interGpuLink.latency,
                                      cfg.hostLink.latency)));
    ASSERT_EQ(shards["children"].members().size(), 2u);
    EXPECT_EQ(shards["children"]["shard1"]["labels"]["shard"].asString(),
              "1");
    EXPECT_TRUE(shards["children"]["shard1"]["counters"]["executed"]
                    .asU64()
                    .has_value());
    EXPECT_EQ(v["shardImbalancePct"].asDouble(), r.shardImbalancePct);
    EXPECT_TRUE(v["metrics"]["children"]["driver"]["counters"]
                 ["quarantinedMessages"]
                     .asU64()
                     .has_value());

    // MetricsGroup::toJson on its own.
    EXPECT_TRUE(mustParse(r.metricsJson)["children"].isObject());

    // And the suite document that wraps results.
    std::ostringstream os;
    writeSuiteJson(os, "one \"quoted\" suite", 0.02, {"KM"}, {"idyll"},
                   {{r}});
    const JsonValue suite = mustParse(os.str());
    EXPECT_EQ(suite["suite"].asString(), "one \"quoted\" suite");
    EXPECT_EQ(suite["scale"].asDouble(), 0.02);
    ASSERT_EQ(suite["results"].items().size(), 1u);
    EXPECT_EQ(suite["results"].items()[0]["execTicks"].asU64(),
              r.execTicks);
}

TEST(SimResults, FromJsonRoundTripsEveryField)
{
    SystemConfig cfg = scaledForSim(SystemConfig::idyllFull());
    cfg.numGpus = 4;
    cfg.cusPerGpu = 4;
    cfg.shards = 2;
    cfg.hostStats = true;
    cfg.latency.enabled = true;
    cfg.sampler.everyCycles = 1000;
    cfg.trace.categories = "all";
    MultiGpuSystem sys(cfg);
    const SimResults r = sys.run(Workload::byName("KM", 0.02));

    std::string error;
    const auto back = SimResults::fromJson(mustParse(r.toJson()), &error);
    ASSERT_TRUE(back) << error;
    for (const SimResults::Field &field : SimResults::fields()) {
        // Every conditional group is on in this run, so each field
        // is written and read back.
        EXPECT_TRUE(!field.when || field.when(r)) << field.name;
        std::visit(
            [&](auto member) {
                using M = decltype(member);
                if constexpr (std::is_same_v<M, SimResults::Field::Raw>) {
                    EXPECT_FALSE((r.*member.text).empty()) << field.name;
                    EXPECT_TRUE((*back.*member.text).empty())
                        << field.name;
                } else if constexpr (std::is_same_v<
                                         M, double SimResults::*>) {
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.*member),
                              std::bit_cast<std::uint64_t>(*back.*member))
                        << field.name;
                } else {
                    EXPECT_EQ(r.*member, *back.*member) << field.name;
                }
            },
            field.member);
    }
}

TEST(SimResults, FromJsonRejectsMistypedMembers)
{
    for (const char *bad : {R"({"execTicks": -1})", R"({"mpki": "x"})",
                            R"({"app": 3})", R"({"sharingBuckets": 1})",
                            R"({"latDemandPhaseCycles": [1, 0.5]})"}) {
        const JsonValue v = mustParse(bad);
        const std::string key = v.members()[0].key;
        std::string error;
        EXPECT_FALSE(SimResults::fromJson(v, &error)) << bad;
        EXPECT_NE(error.find("\"" + key + "\""), std::string::npos)
            << error;
    }
    std::string error;
    EXPECT_FALSE(SimResults::fromJson(mustParse("[1]"), &error));
    EXPECT_FALSE(error.empty());
    // Absent members keep their defaults; raw members are skipped.
    const auto partial = SimResults::fromJson(
        mustParse(R"({"execTicks": 7, "metrics": {"counters": {}}})"));
    ASSERT_TRUE(partial);
    EXPECT_EQ(partial->execTicks, 7u);
    EXPECT_EQ(partial->instructions, 0u);
    EXPECT_TRUE(partial->metricsJson.empty());
}

TEST(JsonWriters, ServeReportParses)
{
    ServeReport report;
    report.app = "KM";
    report.scheme = "IDYLL";
    report.scale = 0.1 + 0.2;
    report.params.unplugPlan = "g1@100";
    report.unplugs = 1;
    report.tailAmplification = 1.0416666666666667;
    report.windows.resize(2);
    const JsonValue v = mustParse(report.toJson());
    EXPECT_EQ(v["bench"].asString(), "serve");
    EXPECT_EQ(v["scale"].asDouble(), report.scale);
    EXPECT_EQ(v["unplugPlan"].asString(), "g1@100");
    EXPECT_EQ(v["metrics"]["tailAmplification"].asDouble(),
              report.tailAmplification);
    EXPECT_EQ(v["metrics"]["unplugs"].asU64(), 1u);
    EXPECT_EQ(v["windows"].items().size(), 2u);
}

TEST(JsonWriters, ChaosReportParses)
{
    ChaosReport report;
    report.trials = 3;
    report.failed = true;
    report.failure.faultRules = {"inval.delay=400@0.25"};
    report.failure.unplugEvents = {"g1@100"};
    report.minimizedFaultRules = {"inval.drop@0.05"};
    report.reproCommand = "idyll_sim --faults \"a\\b\"\t";
    const JsonValue v = mustParse(report.toJson());
    EXPECT_EQ(v["trials"].asU64(), 3u);
    EXPECT_EQ(v["failed"].asBool(), true);
    EXPECT_EQ(v["faultRules"].items()[0].asString(),
              "inval.delay=400@0.25");
    EXPECT_EQ(v["repro"].asString(), report.reproCommand);
}

TEST(JsonWriters, BenchMetricsParse)
{
    BenchMetrics m;
    m.bench = "serve";
    m.schema = 1;
    m.values = {{"steadyP99", 11776}, {"eventsPerSec", 0.1 + 0.2}};
    const JsonValue v = mustParse(benchMetricsToJson(m));
    EXPECT_EQ(v["schema"].asU64(), 1u);
    EXPECT_EQ(v["metrics"]["steadyP99"].asU64(), 11776u);
    EXPECT_EQ(v["metrics"]["eventsPerSec"].asDouble(), 0.1 + 0.2);
}

TEST(JsonWriters, MetricsMeanRoundTrips)
{
    MetricsGroup group("system");
    AvgStat third{group, "third"};
    third.sample(1.0);
    third.sample(0.0);
    third.sample(0.0);
    const JsonValue v = mustParse(group.toJson());
    EXPECT_EQ(v["avgs"]["third"]["mean"].asDouble(), 1.0 / 3.0);
    EXPECT_EQ(v["avgs"]["third"]["count"].asU64(), 3u);
}

TEST(JsonWriters, TraceLineParses)
{
    std::ostringstream os;
    JsonlTraceSink sink(os);
    TraceEvent ev;
    ev.tick = 1234;
    ev.op = TraceOp::NetSend;
    ev.gpu = kHostId;
    ev.vpn = 262144;
    ev.b = 7;
    sink.record(ev);
    sink.flush();
    std::string line = os.str();
    ASSERT_FALSE(line.empty());
    line.pop_back(); // the newline
    const JsonValue v = mustParse(line);
    EXPECT_EQ(v["t"].asU64(), 1234u);
    EXPECT_EQ(v["op"].asString(), traceOpName(TraceOp::NetSend));
    EXPECT_EQ(v["gpu"].asU64(), kHostId);
    EXPECT_EQ(v["b"].asU64(), 7u);
    EXPECT_EQ(v.find("a"), nullptr); // zero a/b/c are omitted
}

} // namespace
} // namespace idyll
