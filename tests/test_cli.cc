/**
 * @file
 * Unit tests for the idyll_sim command-line parser.
 */

#include <gtest/gtest.h>

#include "harness/cli.hh"
#include "harness/runner.hh"
#include "harness/system.hh"
#include "workloads/workload.hh"

namespace idyll
{
namespace
{

CliOptions
mustParse(std::vector<std::string> args)
{
    CliParse parsed = parseCli(args);
    EXPECT_TRUE(parsed.ok()) << parsed.error;
    return parsed.options.value_or(CliOptions{});
}

TEST(Cli, DefaultsAreScaledBaseline)
{
    CliOptions opts = mustParse({});
    EXPECT_EQ(opts.app, "KM");
    EXPECT_EQ(opts.scheme, "baseline");
    EXPECT_EQ(opts.config.accessCounterThreshold, kScaledThreshold256);
    EXPECT_EQ(opts.config.prepopulate, Prepopulate::HomeShard);
}

TEST(Cli, RawSkipsSimulationScaling)
{
    CliOptions opts = mustParse({"--raw"});
    EXPECT_EQ(opts.config.accessCounterThreshold, 256u);
    EXPECT_EQ(opts.config.prepopulate, Prepopulate::None);
}

TEST(Cli, SchemeSelection)
{
    EXPECT_EQ(mustParse({"--scheme", "idyll"}).config.invalApply,
              InvalApply::Lazy);
    EXPECT_EQ(mustParse({"--scheme", "idyll"}).config.invalFilter,
              InvalFilter::InPteDirectory);
    EXPECT_TRUE(mustParse({"--scheme", "replication"})
                    .config.pageReplication);
    EXPECT_TRUE(
        mustParse({"--scheme", "idyll+transfw"}).config.transFw.enabled);
    EXPECT_FALSE(parseCli({"--scheme", "nope"}).ok());
}

TEST(Cli, NumericOverrides)
{
    CliOptions opts = mustParse(
        {"--gpus", "8", "--cus", "32", "--walkers", "16", "--l2tlb",
         "2048", "--threshold", "12", "--dir-bits", "4", "--seed",
         "99", "--scale", "0.5"});
    EXPECT_EQ(opts.config.numGpus, 8u);
    EXPECT_EQ(opts.config.cusPerGpu, 32u);
    EXPECT_EQ(opts.config.gmmu.walkerThreads, 16u);
    EXPECT_EQ(opts.config.l2Tlb.entries, 2048u);
    EXPECT_EQ(opts.config.accessCounterThreshold, 12u);
    EXPECT_EQ(opts.config.directoryBits, 4u);
    EXPECT_EQ(opts.config.seed, 99u);
    EXPECT_DOUBLE_EQ(opts.scale, 0.5);
    EXPECT_NO_THROW(opts.config.validate());
}

TEST(Cli, PageSizeAndIrmbGeometry)
{
    CliOptions opts =
        mustParse({"--page-size", "2m", "--irmb", "64x16"});
    EXPECT_EQ(opts.config.pageBits, 21u);
    EXPECT_EQ(opts.config.irmb.bases, 64u);
    EXPECT_EQ(opts.config.irmb.offsetsPerBase, 16u);
    EXPECT_FALSE(parseCli({"--page-size", "1g"}).ok());
    EXPECT_FALSE(parseCli({"--irmb", "64"}).ok());
    EXPECT_FALSE(parseCli({"--irmb", "0x16"}).ok());
}

TEST(Cli, FlagsAndErrors)
{
    EXPECT_TRUE(mustParse({"--help"}).help);
    EXPECT_TRUE(mustParse({"--list-apps"}).listApps);
    EXPECT_TRUE(mustParse({"--stats"}).dumpStats);
    EXPECT_FALSE(parseCli({"--bogus"}).ok());
    EXPECT_FALSE(parseCli({"--gpus"}).ok());       // missing value
    EXPECT_FALSE(parseCli({"--gpus", "zero"}).ok());
    EXPECT_FALSE(parseCli({"--scale", "-1"}).ok());
}

TEST(Cli, RejectsSignedNumbers)
{
    // strtoull negates a leading '-': "-1" used to wrap to 2^64 - 1.
    EXPECT_FALSE(parseCli({"--shards", "-1"}).ok());
    EXPECT_FALSE(parseCli({"--dir-bits", "-5"}).ok());
    EXPECT_FALSE(parseCli({"--gpus", "+4"}).ok());
    EXPECT_FALSE(parseCli({"--seed", " 7"}).ok());
    EXPECT_FALSE(parseCli({"--scale", "nan"}).ok());
    EXPECT_FALSE(parseCli({"--scale", "inf"}).ok());
    EXPECT_EQ(mustParse({"--dir-bits", "5"}).config.directoryBits, 5u);
}

TEST(Cli, NumberParsers)
{
    std::uint64_t n = 0;
    EXPECT_TRUE(parseUnsigned("42", n));
    EXPECT_EQ(n, 42u);
    EXPECT_TRUE(parseUnsigned("0", n));
    EXPECT_EQ(n, 0u);
    EXPECT_FALSE(parseUnsigned("", n));
    EXPECT_FALSE(parseUnsigned("-1", n));
    EXPECT_FALSE(parseUnsigned("+1", n));
    EXPECT_FALSE(parseUnsigned(" 1", n));
    EXPECT_FALSE(parseUnsigned("1x", n));
    EXPECT_FALSE(parseUnsigned("abc", n));
    EXPECT_FALSE(parseUnsigned("18446744073709551616", n)); // 2^64

    double d = 0.0;
    EXPECT_TRUE(parseDouble("0.05", d));
    EXPECT_DOUBLE_EQ(d, 0.05);
    EXPECT_TRUE(parseDouble("-1", d)); // the caller checks the sign
    EXPECT_FALSE(parseDouble("", d));
    EXPECT_FALSE(parseDouble("0.5x", d));
    EXPECT_FALSE(parseDouble("nan", d));
    EXPECT_FALSE(parseDouble("inf", d));
}

TEST(Cli, ShardsFlag)
{
    EXPECT_EQ(mustParse({}).config.shards, 1u); // serial by default
    EXPECT_EQ(mustParse({"--shards", "4"}).config.shards, 4u);
    EXPECT_FALSE(parseCli({"--shards"}).ok());      // missing value
    EXPECT_FALSE(parseCli({"--shards", "0"}).ok()); // 1 = serial
    EXPECT_FALSE(parseCli({"--shards", "few"}).ok());
}

TEST(Cli, UsageDocumentsShards)
{
    const std::string usage = cliUsage();
    EXPECT_NE(usage.find("--shards"), std::string::npos);
    EXPECT_EQ(usage.find("--jobs"), std::string::npos); // sweeps only
}

TEST(Cli, RejectsCountsThatWrap)
{
    // 2^32 + 2 used to narrow to 2 GPUs and 2^32 + 1 to one shard.
    for (const char *flag :
         {"--gpus", "--shards", "--serve-warmup", "--threshold"}) {
        EXPECT_FALSE(parseCli({flag, "4294967298"}).ok()) << flag;
        EXPECT_FALSE(parseCli({flag, "4294967297"}).ok()) << flag;
    }
    EXPECT_FALSE(parseCli({"--irmb", "4294967328x16"}).ok());
    EXPECT_FALSE(parseCli({"--irmb", "32x4294967312"}).ok());
    EXPECT_FALSE(parseCli({"--mmu-cache", "64x8,4294967328x4"}).ok());
    EXPECT_FALSE(parseCli({"--mmu-cache", "64x4294967304"}).ok());

    // The largest value that fits is still accepted.
    EXPECT_EQ(mustParse({"--serve-warmup", "4294967295"}).serveWarmup,
              4294967295u);
    EXPECT_EQ(mustParse({"--gpus", "4294967295"}).config.numGpus,
              4294967295u);
    const CliParse wrapped = parseCli({"--gpus", "4294967298"});
    EXPECT_NE(wrapped.error.find("4294967295"), std::string::npos)
        << wrapped.error;
}

TEST(Cli, InstrumentFlagsEditTheConfig)
{
    const std::vector<std::string> args{
        "--oracle",          "--faults",         "ack.dup@0.2",
        "--retry-timeout",   "20000",            "--watchdog-events",
        "2000000",           "--watchdog-ticks", "300000",
        "--trace",           "irmb,inval",       "--latency",
        "--sample-every",    "1000",             "--host-stats"};
    std::vector<ConfigEdit> edits;
    std::string error;
    for (std::size_t i = 0; i < args.size(); ++i) {
        ASSERT_TRUE(parseInstrumentFlag(args, i, edits, error)) << args[i];
        ASSERT_TRUE(error.empty()) << error;
    }
    EXPECT_EQ(edits.size(), 9u);

    SystemConfig cfg = scaledForSim(SystemConfig::idyllFull());
    for (const ConfigEdit &edit : edits)
        edit(cfg);
    EXPECT_TRUE(cfg.integrity.oracle);
    EXPECT_EQ(cfg.integrity.faultPlan, "ack.dup@0.2");
    EXPECT_EQ(cfg.integrity.invalRetryTimeout, 20000u);
    EXPECT_EQ(cfg.integrity.watchdogMaxIdleEvents, 2000000u);
    EXPECT_EQ(cfg.integrity.watchdogMaxIdleTicks, 300000u);
    EXPECT_EQ(cfg.trace.categories, "irmb,inval");
    EXPECT_TRUE(cfg.latency.enabled);
    EXPECT_EQ(cfg.sampler.everyCycles, 1000u);
    EXPECT_TRUE(cfg.hostStats);

    // parseCli reads the same flags through the same parser.
    const CliOptions opts = mustParse(args);
    EXPECT_EQ(opts.config.integrity.faultPlan, "ack.dup@0.2");
    EXPECT_EQ(opts.config.sampler.everyCycles, 1000u);
    EXPECT_TRUE(opts.config.hostStats);
}

TEST(Cli, InstrumentParserLeavesOtherFlags)
{
    std::vector<ConfigEdit> edits;
    std::string error;
    std::size_t i = 0;
    EXPECT_FALSE(parseInstrumentFlag({"--gpus", "8"}, i, edits, error));
    EXPECT_EQ(i, 0u);
    EXPECT_TRUE(edits.empty());

    for (const std::vector<std::string> &bad :
         {std::vector<std::string>{"--faults"},
          {"--trace", "bogus"},
          {"--retry-timeout", "0"},
          {"--sample-every", "-1"}}) {
        i = 0;
        error.clear();
        EXPECT_TRUE(parseInstrumentFlag(bad, i, edits, error)) << bad[0];
        EXPECT_FALSE(error.empty()) << bad[0];
    }
    EXPECT_TRUE(edits.empty());
}

TEST(Cli, DigestFollowsThresholdAndRaw)
{
    // idyll_sim's one run: the parsed config, with no second scaling.
    auto digest = [](std::vector<std::string> args) {
        for (const char *extra :
             {"--app", "KM", "--scheme", "idyll", "--scale", "0.05"})
            args.emplace_back(extra);
        const CliOptions opts = mustParse(args);
        MultiGpuSystem system(opts.config);
        system.run(Workload::byName(opts.app, opts.scale));
        return system.translationStateDigest();
    };
    const std::uint64_t base = digest({});
    EXPECT_NE(digest({"--threshold", "16"}), base);
    EXPECT_NE(digest({"--raw"}), base);
}

TEST(Cli, TraceFlags)
{
    EXPECT_TRUE(mustParse({}).config.trace.categories.empty());
    EXPECT_EQ(mustParse({"--trace", "all"}).config.trace.categories,
              "all");
    EXPECT_EQ(mustParse({"--trace", "tlb,inval"})
                  .config.trace.categories,
              "tlb,inval");
    EXPECT_EQ(mustParse({"--trace-out", "t.jsonl"})
                  .config.trace.jsonlPath,
              "t.jsonl");
    EXPECT_FALSE(parseCli({"--trace"}).ok()); // missing value
    EXPECT_FALSE(parseCli({"--trace", "bogus"}).ok());
    EXPECT_FALSE(parseCli({"--trace-out"}).ok());

    // --trace-digest implies "all" unless --trace narrows it.
    CliOptions digest = mustParse({"--trace-digest"});
    EXPECT_TRUE(digest.traceDigest);
    EXPECT_EQ(digest.config.trace.categories, "all");
    EXPECT_EQ(mustParse({"--trace-digest", "--trace", "irmb"})
                  .config.trace.categories,
              "irmb");

    // The digests describe a plain run; the other drivers refuse them.
    EXPECT_FALSE(parseCli({"--serve", "--digest"}).ok());
    EXPECT_FALSE(parseCli({"--chaos", "7,1", "--trace-digest"}).ok());
}

TEST(Cli, OddL2TlbSizesRemainValid)
{
    CliOptions opts = mustParse({"--l2tlb", "1000"});
    EXPECT_NO_THROW(opts.config.validate());
}

TEST(Cli, UsageMentionsEverySchemes)
{
    const std::string usage = cliUsage();
    for (const char *s : {"baseline", "idyll", "inmem", "zero",
                          "replication", "transfw"})
        EXPECT_NE(usage.find(s), std::string::npos) << s;
}

} // namespace
} // namespace idyll
