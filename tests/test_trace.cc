/**
 * @file
 * Tests for the structured event tracer: category parsing, runtime
 * filtering, JSONL well-formedness, digest determinism across the
 * parallel runner, a pinned golden trace for a two-GPU ping-pong
 * migration workload, and the invalidation-subset property that is
 * IDYLL's whole point (lightweight invalidation never sends *more*
 * than the baseline broadcast).
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "harness/system.hh"
#include "sim/trace.hh"

namespace idyll
{
namespace
{

// --- pure parsing / naming ---------------------------------------------

TEST(TraceCategories, ParsesAllAndCsv)
{
    EXPECT_EQ(parseTraceCategories("all"), kTraceAll);
    EXPECT_EQ(parseTraceCategories(""), 0u);
    EXPECT_EQ(parseTraceCategories("tlb"),
              traceBit(TraceCategory::Tlb));
    EXPECT_EQ(parseTraceCategories("tlb,inval"),
              traceBit(TraceCategory::Tlb) |
                  traceBit(TraceCategory::Inval));
    EXPECT_EQ(parseTraceCategories("bogus"), std::nullopt);
    EXPECT_EQ(parseTraceCategories("tlb,bogus"), std::nullopt);
}

TEST(TraceCategories, EveryCategoryNameRoundTrips)
{
    for (std::uint32_t i = 0; i < kNumTraceCategories; ++i) {
        const auto cat = static_cast<TraceCategory>(i);
        EXPECT_EQ(parseTraceCategories(traceCategoryName(cat)),
                  traceBit(cat))
            << traceCategoryName(cat);
    }
}

TEST(TraceOps, NamesAreUniqueAndCategorized)
{
    std::set<std::string> names;
    for (std::uint32_t i = 0; i < kNumTraceOps; ++i) {
        const auto op = static_cast<TraceOp>(i);
        const std::string name = traceOpName(op);
        EXPECT_FALSE(name.empty());
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate op name " << name;
        EXPECT_LT(static_cast<std::uint32_t>(traceCategoryOf(op)),
                  kNumTraceCategories);
    }
}

// --- digest sink semantics ---------------------------------------------

TEST(TraceDigest, OrderInsensitiveAndCounted)
{
    const TraceEvent e1{10, TraceOp::TlbHit, 0, 0x40000, 3, 1, 0};
    const TraceEvent e2{20, TraceOp::TlbMiss, 1, 0x40001, 2, 0, 0};

    TraceDigestSink ab, ba;
    ab.record(e1);
    ab.record(e2);
    ba.record(e2);
    ba.record(e1);

    EXPECT_EQ(ab.count(TraceCategory::Tlb), 2u);
    EXPECT_EQ(ab.opCount(TraceOp::TlbHit), 1u);
    EXPECT_EQ(ab.totalCount(), 2u);
    EXPECT_EQ(ab.hash(TraceCategory::Tlb),
              ba.hash(TraceCategory::Tlb));
    EXPECT_EQ(ab.totalHash(), ba.totalHash());
    EXPECT_EQ(ab.canonicalText(), ba.canonicalText());
    EXPECT_EQ(ab.canonicalLine(), ba.canonicalLine());

    // A different multiset must not collide on the happy path.
    TraceDigestSink other;
    other.record(e1);
    EXPECT_NE(other.totalHash(), ab.totalHash());
}

#if IDYLL_TRACE_ENABLED

// --- run-based tests (need the instrumentation compiled in) ------------

SystemConfig
smallTraced(SystemConfig base, const std::string &cats)
{
    base.numGpus = 2;
    base.cusPerGpu = 8;
    base.warpsPerCu = 4;
    base.accessCounterThreshold = 4;
    base.prepopulate = Prepopulate::HomeShard;
    base.trace.categories = cats;
    return base;
}

/**
 * A deterministic two-GPU ping-pong: a small, hot, globally shared
 * region that both GPUs hammer with writes, so pages migrate back and
 * forth and every IDYLL mechanism (IRMB merging, in-PTE directory
 * suppression) engages.
 */
AppParams
pingPongParams()
{
    AppParams p;
    p.name = "pingpong2";
    p.pattern = SharePattern::Random;
    p.footprintPages = 64;
    p.itemsPerCu = 400;
    p.writeRatio = 0.5;
    p.remoteFraction = 0.5;
    p.pageRunLength = 2;
    p.shareDegree = 2;
    p.hotFraction = 0.8;
    p.hotPages = 8;
    return p;
}

TEST(TraceFilter, OnlyRequestedCategoriesPassTheMask)
{
    MultiGpuSystem system(
        smallTraced(SystemConfig::idyllFull(), "tlb"));
    ASSERT_NE(system.tracer(), nullptr);
    CollectTraceSink collected;
    system.tracer()->addSink(&collected);

    system.run(Workload(pingPongParams()));

    ASSERT_FALSE(collected.events().empty());
    for (const TraceEvent &event : collected.events()) {
        EXPECT_EQ(traceCategoryOf(event.op), TraceCategory::Tlb)
            << traceOpName(event.op);
    }
}

TEST(TraceJsonl, EveryLineIsOneWellFormedObject)
{
    MultiGpuSystem system(
        smallTraced(SystemConfig::idyllFull(), "mig,inval"));
    ASSERT_NE(system.tracer(), nullptr);
    std::ostringstream jsonl;
    JsonlTraceSink sink(jsonl);
    system.tracer()->addSink(&sink);

    system.run(Workload(pingPongParams()));

    std::istringstream lines(jsonl.str());
    std::string line;
    std::uint64_t count = 0;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{') << line;
        EXPECT_EQ(line.back(), '}') << line;
        EXPECT_NE(line.find("\"t\":"), std::string::npos) << line;
        EXPECT_NE(line.find("\"cat\":\""), std::string::npos) << line;
        EXPECT_NE(line.find("\"op\":\""), std::string::npos) << line;
        EXPECT_NE(line.find("\"gpu\":"), std::string::npos) << line;
        // Quotes must balance (no unescaped strings sneaking out).
        EXPECT_EQ(std::count(line.begin(), line.end(), '"') % 2, 0)
            << line;
        ++count;
    }
    ASSERT_NE(system.traceDigest(), nullptr);
    EXPECT_EQ(count, system.traceDigest()->totalCount());
    EXPECT_GT(count, 0u);
}

TEST(TraceDigest, IdenticalForSerialAndParallelSuiteRuns)
{
    const std::vector<std::string> apps{"KM"};
    std::vector<SchemePoint> schemes;
    schemes.push_back({"baseline",
                       smallTraced(SystemConfig::baseline(), "all")});
    schemes.push_back({"idyll",
                       smallTraced(SystemConfig::idyllFull(), "all")});

    const auto serial = ParallelRunner(1).runGrid(apps, schemes, 0.1);
    const auto parallel = ParallelRunner(8).runGrid(apps, schemes, 0.1);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t s = 0; s < serial.size(); ++s) {
        for (std::size_t a = 0; a < serial[s].size(); ++a) {
            EXPECT_FALSE(serial[s][a].traceDigest.empty());
            EXPECT_EQ(serial[s][a].traceDigest,
                      parallel[s][a].traceDigest)
                << schemes[s].label;
        }
    }
}

TEST(GoldenTrace, PingPongMigrationUnderIdyll)
{
    // Four GPUs so the in-PTE directory has something to suppress
    // (with two, every ping-ponged page is shared by "everyone" and
    // a broadcast is already minimal), and a higher migration rate
    // so IRMB bases see multiple offsets in flight at once.
    SystemConfig cfg = smallTraced(SystemConfig::idyllFull(), "all");
    cfg.numGpus = 4;
    cfg.accessCounterThreshold = 2;
    AppParams params = pingPongParams();
    params.itemsPerCu = 600;
    params.hotPages = 16;
    params.hotFraction = 0.6;

    MultiGpuSystem system(cfg);
    SimResults r = system.run(Workload(params));

    const TraceDigestSink *digest = system.traceDigest();
    ASSERT_NE(digest, nullptr);

    // The workload must actually exercise the IDYLL machinery.
    EXPECT_GT(digest->opCount(TraceOp::MigDone), 0u);
    EXPECT_GT(digest->opCount(TraceOp::IrmbMerge), 0u)
        << "IRMB never merged: batching is broken or the workload "
           "stopped ping-ponging";
    EXPECT_GT(digest->opCount(TraceOp::DirTargets), 0u);
    // In-PTE directory suppression: across all rounds, fewer
    // invalidations go out than a 4-GPU broadcast would send.
    EXPECT_LT(digest->opCount(TraceOp::InvalSend),
              4 * digest->opCount(TraceOp::InvalRoundDone));

    // Results carry the one-line digest and the metrics registry.
    EXPECT_EQ(r.traceDigest, digest->canonicalLine());
    EXPECT_NE(r.metricsJson.find("\"children\""), std::string::npos);

    // The pinned golden: event counts AND order-insensitive hashes
    // for every category. Any change to translation, migration, or
    // invalidation behaviour shows up here. If a change is intended,
    // re-pin with:  idyll_tests --gtest_filter='GoldenTrace.*'
    // and copy the "actual" text from the failure message.
    const std::string golden =
        "trace-digest v1\n"
        "tlb count=43606 hash=59c3f1638c6fc2f5\n"
        "irmb count=11922 hash=97cc3836f8436923\n"
        "dir count=11400 hash=741e1cf2b1270142\n"
        "walk count=49323 hash=7ea238d26765fad1\n"
        "mig count=10169 hash=22d52d140e560853\n"
        "inval count=20604 hash=6022b8e9799befd0\n"
        "fault count=21707 hash=28495cdaff36bd96\n"
        "net count=57116 hash=211b275eba0fe08d\n"
        "all count=225847 hash=8f16030c909aeadd\n";
    EXPECT_EQ(digest->canonicalText(), golden)
        << "actual:\n"
        << digest->canonicalText();
}

TEST(GoldenTrace, DigestIdenticalAcrossRepeatedRuns)
{
    // Digest-identity check for the pooled event kernel: two fresh
    // systems in the same process must replay the exact same trace.
    // The second run's queue grows its slab arena from a process heap
    // the first run already churned, so any dependence on node
    // addresses or allocation order (instead of pure (tick, seq)
    // ordering) would show up as a digest difference here.
    SystemConfig cfg = smallTraced(SystemConfig::idyllFull(), "all");
    cfg.numGpus = 4;
    const Workload workload(pingPongParams());

    auto digestOf = [&] {
        MultiGpuSystem system(cfg);
        return system.run(workload).traceDigest;
    };
    const std::string first = digestOf();
    const std::string second = digestOf();
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(InvalSubsetProperty, IdyllNeverInvalidatesMoreThanBaseline)
{
    // IDYLL's promise is *fewer, never extra* invalidations: every
    // (target GPU, vpn) the IDYLL scheme invalidates must also be
    // invalidated by the broadcast baseline on the same workload.
    const Workload workload(pingPongParams());

    auto collect = [&](SystemConfig cfg) {
        MultiGpuSystem system(smallTraced(std::move(cfg), "inval"));
        CollectTraceSink sink;
        system.tracer()->addSink(&sink);
        system.run(workload);
        std::set<std::pair<GpuId, Vpn>> pairs;
        for (const TraceEvent &event : sink.events()) {
            if (event.op == TraceOp::InvalSend)
                pairs.emplace(event.gpu, event.vpn);
        }
        return pairs;
    };

    const auto baseline = collect(SystemConfig::baseline());
    const auto idyll = collect(SystemConfig::idyllFull());

    ASSERT_FALSE(baseline.empty());
    ASSERT_FALSE(idyll.empty());
    for (const auto &pair : idyll) {
        EXPECT_TRUE(baseline.count(pair))
            << "idyll invalidated (gpu " << pair.first << ", vpn 0x"
            << std::hex << pair.second
            << ") which the baseline broadcast never sent";
    }
    EXPECT_LE(idyll.size(), baseline.size());
}

#endif // IDYLL_TRACE_ENABLED

} // namespace
} // namespace idyll
