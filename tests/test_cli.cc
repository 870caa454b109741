/**
 * @file
 * Unit tests for the idyll_sim command-line parser.
 */

#include <gtest/gtest.h>

#include "harness/cli.hh"
#include "harness/runner.hh"

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
    EXPECT_FALSE(parseCli({"--jobs", "-1"}).ok());
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

TEST(Cli, JobsFlag)
{
    EXPECT_EQ(mustParse({}).jobs, 0u); // 0 = auto (resolveJobs)
    EXPECT_EQ(mustParse({"--jobs", "4"}).jobs, 4u);
    EXPECT_EQ(mustParse({"--jobs", "0"}).jobs, 0u);
    EXPECT_FALSE(parseCli({"--jobs"}).ok());
    EXPECT_FALSE(parseCli({"--jobs", "many"}).ok());
}

TEST(Cli, ShardsFlag)
{
    EXPECT_EQ(mustParse({}).config.shards, 1u); // serial by default
    EXPECT_EQ(mustParse({"--shards", "4"}).config.shards, 4u);
    EXPECT_FALSE(parseCli({"--shards"}).ok());      // missing value
    EXPECT_FALSE(parseCli({"--shards", "0"}).ok()); // 1 = serial
    EXPECT_FALSE(parseCli({"--shards", "few"}).ok());
}

TEST(Cli, ShardsTakePrecedenceOverJobs)
{
    // clampJobsForShards is the pure core of the composition rule
    // (shards win; shards x jobs must fit the machine), with the
    // hardware thread count injected so the test pins exact numbers.
    bool warned = false;

    // Fits: 2 shards x 4 jobs on 16 threads passes through untouched.
    EXPECT_EQ(clampJobsForShards(4, 2, 16, &warned), 4u);
    EXPECT_FALSE(warned);

    // Oversubscribed: 8 shards x 4 jobs on 16 threads clamps jobs to
    // hw / shards = 2 and reports the clamp.
    EXPECT_EQ(clampJobsForShards(4, 8, 16, &warned), 2u);
    EXPECT_TRUE(warned);

    // Shards alone exceed the machine: jobs floor at 1.
    warned = false;
    EXPECT_EQ(clampJobsForShards(4, 32, 16, &warned), 1u);
    EXPECT_TRUE(warned);

    // Serial shards never constrain jobs.
    warned = false;
    EXPECT_EQ(clampJobsForShards(64, 1, 4, &warned), 64u);
    EXPECT_FALSE(warned);

    // Degenerate inputs stay sane (and never divide by zero).
    EXPECT_EQ(clampJobsForShards(0, 4, 16, nullptr), 1u);
    EXPECT_GE(clampJobsForShards(4, 4, 0, nullptr), 1u);

    // End to end: a --shards run that fits emits no advisory.
    CliParse fits = parseCli({"--shards", "2", "--jobs", "1"});
    ASSERT_TRUE(fits.ok());
    EXPECT_TRUE(fits.warning.empty());
}

TEST(Cli, UsageDocumentsShardJobPrecedence)
{
    const std::string usage = cliUsage();
    EXPECT_NE(usage.find("--shards"), std::string::npos);
    EXPECT_NE(usage.find("precedence over --jobs"), std::string::npos);
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
