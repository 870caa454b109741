/**
 * @file
 * Golden digest matrix: every cell runs a 4-GPU system at scale 0.05
 * through the same configuration path as `idyll_sim ... --digest`
 * (the config parseCli returns) with every trace category on, and
 * pins three things: the execution cycles, the final translation-state
 * digest, and the trace digest's `all` line. Any change to simulated
 * behaviour -- event order, protocol timing, translation state --
 * moves at least one of them, so refactors of the event path get
 * "digests unchanged" from the test suite instead of a hand check.
 *
 * Beyond the app x scheme grid, three KM/IDYLL cells cover the paths
 * a plain run never takes: duplicated protocol messages (fault plan),
 * the in-flight byte accounting behind the interval sampler, and a
 * mid-run unplug (dead-device and NACK-retry paths).
 *
 * If a change is meant to move results, re-pin with
 *   idyll_tests --gtest_filter='*GoldenMatrix*'
 * and copy the "actual" values from the failure messages.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/system.hh"
#include "sim/trace.hh"
#include "workloads/workload.hh"

namespace idyll
{
namespace
{

struct GoldenCell
{
    const char *name;
    std::vector<std::string> args;
    Tick execTicks;
    std::uint64_t digest;
    const char *allLine;
    /** The cell must take the dead-home NACK-retry path. */
    bool nackRetries = false;
};

/** gtest prints a failing cell by name instead of as raw bytes. */
void
PrintTo(const GoldenCell &cell, std::ostream *os)
{
    *os << cell.name;
}

std::vector<GoldenCell>
goldenCells()
{
    return {
        // clang-format off
        {"PR_baseline", {"--app", "PR", "--scheme", "baseline"},
         133181, 0x487df495cf9891e0, "all count=227566 hash=80ec5570d8650b20"},
        {"PR_idyll", {"--app", "PR", "--scheme", "idyll"},
         82340, 0x82f12329c48b68f4, "all count=226213 hash=c4b2031b7aca3e55"},
        {"PR_zero", {"--app", "PR", "--scheme", "zero"},
         73431, 0x3b39ba111b0940fd, "all count=210184 hash=7dad3acc72be24b2"},
        {"PR_transfw", {"--app", "PR", "--scheme", "transfw"},
         132208, 0x1feb2b5880869cdf, "all count=227759 hash=cde914100ad14c74"},
        {"PR_replication", {"--app", "PR", "--scheme", "replication"},
         156991, 0x7aa1534026130fed, "all count=235290 hash=39fdcfc7a3b2fdbe"},
        {"KM_baseline", {"--app", "KM", "--scheme", "baseline"},
         104434, 0x5b5892cd1d264e21, "all count=184642 hash=58d0b229cf73c84e"},
        {"KM_idyll", {"--app", "KM", "--scheme", "idyll"},
         61617, 0x333532a1a96f473a, "all count=182654 hash=a99b0eb1ac9368e9"},
        {"KM_zero", {"--app", "KM", "--scheme", "zero"},
         54133, 0x404b5681640a9a68, "all count=170091 hash=f4cab82bbac9c9f8"},
        {"KM_transfw", {"--app", "KM", "--scheme", "transfw"},
         104757, 0xe8f929aff06c958b, "all count=184434 hash=17f6605da6c23141"},
        {"KM_replication", {"--app", "KM", "--scheme", "replication"},
         106342, 0x97f67071a6fdbef, "all count=175504 hash=858201f5766004ac"},
        {"MT_baseline", {"--app", "MT", "--scheme", "baseline"},
         189603, 0x63a719d95fda569e, "all count=307799 hash=183381887a54c842"},
        {"MT_idyll", {"--app", "MT", "--scheme", "idyll"},
         189603, 0x63a719d95fda569e, "all count=386362 hash=c68da811cd01d991"},
        {"MT_zero", {"--app", "MT", "--scheme", "zero"},
         189603, 0x63a719d95fda569e, "all count=307799 hash=183381887a54c842"},
        {"MT_transfw", {"--app", "MT", "--scheme", "transfw"},
         189671, 0x63a719d95fda569e, "all count=308705 hash=f7f089b07d49a405"},
        {"MT_replication", {"--app", "MT", "--scheme", "replication"},
         258252, 0x9e4b17cbf088305a, "all count=363444 hash=917e4a9a233bbb2f"},
        {"KM_idyll_dupFaults", {"--app", "KM", "--scheme", "idyll",
                                "--faults", "ack.dup@0.5,inval.dup@0.3"},
         61384, 0xd8991b0f282e0f5e, "all count=183442 hash=d6f9ef3fc57058fe"},
        {"KM_idyll_sampler", {"--app", "KM", "--scheme", "idyll",
                              "--sample-every", "1000"},
         61617, 0x333532a1a96f473a, "all count=182654 hash=a99b0eb1ac9368e9"},
        {"KM_idyll_unplug", {"--app", "KM", "--scheme", "idyll",
                             "--unplug", "g2@30000/90000"},
         165775, 0x1c5fe9a3670797f4, "all count=194715 hash=a7980b1269616afc",
         true},
        // clang-format on
    };
}

class GoldenMatrix : public ::testing::TestWithParam<GoldenCell>
{
};

TEST_P(GoldenMatrix, MatchesPinnedDigests)
{
    const GoldenCell &cell = GetParam();
    std::vector<std::string> args = cell.args;
    for (const char *extra :
         {"--gpus", "4", "--scale", "0.05", "--trace", "all"})
        args.emplace_back(extra);
    const CliParse parsed = parseCli(args);
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const CliOptions &opts = *parsed.options;

    MultiGpuSystem system(opts.config);
    const SimResults r =
        system.run(Workload::byName(opts.app, opts.scale));

    EXPECT_EQ(r.execTicks, cell.execTicks) << "actual exec cycles";
    EXPECT_EQ(system.translationStateDigest(), cell.digest)
        << "actual digest 0x" << std::hex
        << system.translationStateDigest();
    if (cell.nackRetries) {
        std::uint64_t retries = 0;
        for (std::uint32_t g = 0; g < system.numGpus(); ++g)
            retries += system.gpu(g).stats().deadHomeRetries.value();
        EXPECT_GT(retries, 0u) << "the unplug no longer strands reads";
    }
#if IDYLL_TRACE_ENABLED
    ASSERT_NE(system.traceDigest(), nullptr);
    std::istringstream lines(system.traceDigest()->canonicalText());
    std::string line, all;
    while (std::getline(lines, line))
        if (line.rfind("all ", 0) == 0)
            all = line;
    EXPECT_EQ(all, cell.allLine) << "actual trace-digest line";
#endif
}

INSTANTIATE_TEST_SUITE_P(
    Cells, GoldenMatrix, ::testing::ValuesIn(goldenCells()),
    [](const ::testing::TestParamInfo<GoldenCell> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace idyll
