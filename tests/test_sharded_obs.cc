/**
 * @file
 * Shard-native observability suite (DESIGN.md section 11).
 *
 * The contract under test: enabling the observability stack — the
 * latency scoreboard, the interval sampler, JSONL tracing — no longer
 * serializes a sharded run, and every observability output of a
 * sharded run is bit-identical to the serial run's:
 *
 *  - 60 seeded randomized trials over (topology, scheme, seed, shard
 *    count, fault plan) with the scoreboard AND sampler on, comparing
 *    the full SimResults JSON plus the scoreboard and sampler JSON
 *    serializations directly.
 *  - JSONL trace: sharded runs are deterministic (two runs, byte
 *    equal) and emit exactly the serial line multiset; the
 *    order-insensitive trace digest in the results is bit-identical.
 *  - Windowed serve drives: per-epoch snapshotAndReset() windows
 *    merge the per-shard op lanes and match serial window for window.
 *  - The JSONL merge order check: a line lane merged out of order
 *    must panic (death test). The OrderedLanes primitive's own check
 *    is tested in test_ordered_lanes.cc.
 *  - resolveShards() reports every serialize reason in one warning.
 *  - Keepalive event-core semantics the sampler chains rely on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/system.hh"
#include "sim/event_queue.hh"
#include "sim/latency.hh"
#include "sim/sampler.hh"
#include "sim/trace.hh"
#include "workloads/workload.hh"

namespace idyll
{
namespace
{

/** splitmix64: cheap, well-mixed per-trial parameter derivation. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

/** Tiny but behaviorally varied workload for fast paired runs. */
AppParams
tinyApp(std::uint64_t h)
{
    AppParams app;
    app.name = "obstrial";
    switch (h % 3) {
      case 0:
        app.pattern = SharePattern::Random;
        break;
      case 1:
        app.pattern = SharePattern::Adjacent;
        break;
      default:
        app.pattern = SharePattern::ScatterGather;
        break;
    }
    app.footprintPages = 32 + (h >> 2) % 97;
    app.itemsPerCu = 50 + (h >> 9) % 120;
    app.writeRatio = 0.25 * (1 + (h >> 17) % 3);
    app.pageRunLength = 1 + (h >> 21) % 4;
    app.remoteFraction = 0.3 + 0.1 * ((h >> 24) % 5);
    app.shareDegree = 2 + (h >> 27) % 3;
    app.computeMax = 8;
    return app;
}

/** Read a whole file (the JSONL comparisons need exact bytes). */
std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** The file's lines, sorted: the order-free line multiset. */
std::vector<std::string>
sortedLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
}

// ------------------------------------------------------------------
// Randomized serial-vs-sharded identity with observability enabled
// ------------------------------------------------------------------

class ShardedObsTrial : public ::testing::TestWithParam<int>
{
};

TEST_P(ShardedObsTrial, ObservabilityMatchesSerialBitForBit)
{
    const int trial = GetParam();
    std::uint64_t h = mix64(0x0B5E11ull + static_cast<std::uint64_t>(trial));
    auto draw = [&h] {
        h = mix64(h);
        return h;
    };

    SystemConfig cfg;
    switch (draw() % 4) {
      case 0:
        cfg = SystemConfig::baseline();
        break;
      case 1:
        cfg = SystemConfig::idyllFull();
        break;
      case 2:
        cfg = SystemConfig::idyllInMem();
        break;
      default:
        cfg = SystemConfig::onlyLazy();
        break;
    }
    cfg.numGpus = 2 + draw() % 15;
    cfg.cusPerGpu = 2;
    cfg.warpsPerCu = 2;
    cfg.accessCounterThreshold = 8;
    cfg.prepopulate = Prepopulate::HomeShard;
    cfg.seed = draw();
    cfg.shards = 2 + draw() % 7;
    // The whole observability stack rides along on every trial.
    cfg.latency.enabled = true;
    cfg.sampler.everyCycles = 500 + draw() % 2000;
    cfg.sampler.maxRecords = 64 + draw() % 192;
    if (trial % 3 == 0)
        cfg.trace.categories = "all"; // folds per-shard digest lanes
    if (trial % 6 == 5) {
        // Message faults must not desync the op-lane merge either.
        cfg.integrity.faultPlan = "inval.delay=800@0.3,ack.dup@0.1";
    }

    const Workload workload(tinyApp(draw()));

    SystemConfig serialCfg = cfg;
    serialCfg.shards = 1;
    MultiGpuSystem serialSys(serialCfg);
    const SimResults serial = serialSys.run(workload);

    MultiGpuSystem shardedSys(cfg);
    const SimResults sharded = shardedSys.run(workload);
    ASSERT_GE(shardedSys.effectiveShards(), 2u)
        << "observability serialized the run";

    // The results JSON embeds the attribution JSON, the sampler JSON,
    // and the trace digest, so this is already the full identity
    // check; the direct comparisons below localize a failure to the
    // component whose merge broke.
    EXPECT_EQ(shardedSys.latency()->toJson(), serialSys.latency()->toJson());
    ASSERT_NE(shardedSys.sampler(), nullptr);
    EXPECT_EQ(shardedSys.sampler()->toJson(), serialSys.sampler()->toJson());
    EXPECT_EQ(sharded.toJson(), serial.toJson());
    EXPECT_GT(serialSys.latency()->finished(RequestKind::Demand), 0u)
        << "trial produced no finished demand tokens; it tests nothing";
    EXPECT_GT(serialSys.sampler()->records(), 0u);
}

INSTANTIATE_TEST_SUITE_P(SixtySeededTrials, ShardedObsTrial,
                         ::testing::Range(0, 60));

// ------------------------------------------------------------------
// JSONL trace determinism
// ------------------------------------------------------------------

TEST(ShardedObs, JsonlTraceShardedIsDeterministicAndCompleteVsSerial)
{
    SystemConfig cfg = SystemConfig::idyllFull();
    cfg.numGpus = 4;
    cfg.cusPerGpu = 2;
    cfg.warpsPerCu = 2;
    cfg.accessCounterThreshold = 8;
    cfg.prepopulate = Prepopulate::HomeShard;
    cfg.seed = 7;
    cfg.trace.categories = "all";

    AppParams app = tinyApp(mix64(0x7ACEull));
    app.name = "jsonltrial";
    const Workload workload(app);

    const std::string dir = ::testing::TempDir();
    auto runWithTrace = [&](std::uint32_t shards,
                            const std::string &path) {
        SystemConfig c = cfg;
        c.shards = shards;
        c.trace.jsonlPath = path;
        MultiGpuSystem sys(c);
        const SimResults r = sys.run(workload);
        if (shards > 1) {
            EXPECT_GE(sys.effectiveShards(), 2u);
        }
        return r.toJson();
    };

    const std::string serialJson =
        runWithTrace(1, dir + "obs_serial.jsonl");
    const std::string shardedJson =
        runWithTrace(5, dir + "obs_sharded_a.jsonl");
    const std::string shardedJson2 =
        runWithTrace(5, dir + "obs_sharded_b.jsonl");

    // The order-insensitive digest inside the results must already
    // agree — and the results as a whole.
    EXPECT_EQ(shardedJson, serialJson);
    EXPECT_EQ(shardedJson2, serialJson);

    const std::string serialText = slurp(dir + "obs_serial.jsonl");
    const std::string shardedA = slurp(dir + "obs_sharded_a.jsonl");
    const std::string shardedB = slurp(dir + "obs_sharded_b.jsonl");
    ASSERT_FALSE(serialText.empty());

    // Sharded runs are deterministic: byte-for-byte repeatable.
    EXPECT_EQ(shardedA, shardedB);
    // And complete: the merge emits exactly the serial line multiset
    // (within one tick, lanes may interleave differently than the
    // serial intra-tick order, so raw bytes can differ from serial).
    EXPECT_EQ(sortedLines(shardedA), sortedLines(serialText));
}

// ------------------------------------------------------------------
// Windowed epoch snapshots (the serve-harness drive) under sharding
// ------------------------------------------------------------------

/** Everything a LatencyWindow holds, as one comparable string. */
std::string
describeWindow(const LatencyWindow &w)
{
    std::ostringstream os;
    for (std::uint32_t k = 0; k < kNumRequestKinds; ++k) {
        os << "kind=" << k << " finished=" << w.finished[k]
           << " cycles=" << w.totalCycles[k]
           << " aborted=" << w.aborted[k]
           << " hist=" << w.totalHist[k].toJson() << " phases=[";
        for (std::uint32_t p = 0; p < kNumLatencyPhases; ++p)
            os << (p ? "," : "") << w.phaseCycles[k][p];
        os << "]\n";
    }
    return os.str();
}

TEST(ShardedObs, EpochSnapshotsMergeAcrossShards)
{
    SystemConfig cfg = SystemConfig::idyllFull();
    cfg.numGpus = 4;
    cfg.cusPerGpu = 2;
    cfg.warpsPerCu = 2;
    cfg.accessCounterThreshold = 8;
    cfg.prepopulate = Prepopulate::HomeShard;
    cfg.seed = 21;
    cfg.latency.enabled = true;

    AppParams app = tinyApp(mix64(0x5E4Eull));
    app.name = "epochtrial";
    const Workload workload(app);

    // The serve harness's drive: bounded slices, one snapshot per
    // window. Returns the per-window descriptions plus the final
    // results JSON.
    auto drive = [&](std::uint32_t shards) {
        SystemConfig c = cfg;
        c.shards = shards;
        MultiGpuSystem sys(c);
        sys.launch(workload);
        EventQueue &eq = sys.eventQueue();
        std::vector<std::string> windows;
        Tick cursor = 0;
        while (!eq.empty()) {
            cursor += 50000;
            eq.runUntil(cursor);
            windows.push_back(
                describeWindow(sys.latency()->snapshotAndReset()));
        }
        if (shards > 1) {
            EXPECT_GE(sys.effectiveShards(), 2u);
        }
        const SimResults r = sys.finish(workload.name());
        return std::make_pair(windows, r.toJson());
    };

    const auto serial = drive(1);
    const auto sharded = drive(5);

    ASSERT_GT(serial.first.size(), 1u)
        << "run fit in one window; widen the workload";
    ASSERT_EQ(sharded.first.size(), serial.first.size());
    for (std::size_t i = 0; i < serial.first.size(); ++i)
        EXPECT_EQ(sharded.first[i], serial.first[i]) << "window " << i;
    EXPECT_EQ(sharded.second, serial.second);
}

// ------------------------------------------------------------------
// The JSONL line-lane merge order check
// ------------------------------------------------------------------

TEST(ShardedObs, JsonlMergeOrderViolationDiesDeathTest)
{
    // Two lines on one lane with DECREASING ticks forge the corruption
    // a missed rendezvous merge would produce; the OrderedLanes check
    // must panic instead of writing them out.
    EXPECT_DEATH(
        {
            std::ostringstream os;
            JsonlTraceSink sink(os);
            sink.enableSharding(2);
            sink.record(TraceEvent{100, TraceOp::TlbHit, 0, 1});
            sink.record(TraceEvent{50, TraceOp::TlbHit, 0, 2});
            sink.mergeWindow();
        },
        "merge order violated");
}

// ------------------------------------------------------------------
// resolveShards(): every serialize reason in one warning
// ------------------------------------------------------------------

TEST(ShardedObs, SerialFallbackWarningListsEveryReason)
{
    SystemConfig cfg = SystemConfig::baseline();
    cfg.numGpus = 4;
    cfg.shards = 4;
    // Three independent serial-only features at once.
    cfg.integrity.oracle = true;
    cfg.integrity.suppressInvalGpuForTest = 1;
    cfg.integrity.unplugPlan = "g1@10000";

    ::testing::internal::CaptureStderr();
    MultiGpuSystem sys(cfg);
    const std::string err = ::testing::internal::GetCapturedStderr();

    EXPECT_EQ(sys.effectiveShards(), 1u);
    EXPECT_NE(err.find("oracle"), std::string::npos) << err;
    EXPECT_NE(err.find("unplug"), std::string::npos) << err;
    EXPECT_NE(err.find("inval-suppression"), std::string::npos) << err;
    // One warning line, not one per reason.
    EXPECT_EQ(err.find("warn: --shards"), err.rfind("warn: --shards"))
        << err;
}

TEST(ShardedObs, ObservabilityAloneEmitsNoFallbackWarning)
{
    SystemConfig cfg = SystemConfig::baseline();
    cfg.numGpus = 4;
    cfg.shards = 4;
    cfg.latency.enabled = true;
    cfg.sampler.everyCycles = 1000;
    cfg.trace.categories = "all";

    ::testing::internal::CaptureStderr();
    MultiGpuSystem sys(cfg);
    const std::string err = ::testing::internal::GetCapturedStderr();

    EXPECT_EQ(sys.effectiveShards(), 4u);
    EXPECT_EQ(err.find("running serial"), std::string::npos) << err;
}

// ------------------------------------------------------------------
// Keepalive event-core semantics (what the sampler chains rely on)
// ------------------------------------------------------------------

TEST(ShardedObs, KeepalivesNeverHoldTheQueueOpen)
{
    EventQueue eq;
    int wakes = 0;
    std::function<void()> chain = [&] {
        ++wakes;
        eq.scheduleKeepalive(10, chain);
    };
    eq.scheduleKeepalive(10, chain);
    // A keepalive-only queue is already "empty": runs terminate as if
    // no sampler were attached.
    EXPECT_TRUE(eq.empty());
    eq.scheduleAt(5, [] {});
    eq.scheduleAt(35, [] {});
    eq.run();
    // Wakes at 10, 20, 30 ran (each before the real tick-35 event was
    // the last); the reschedule to 40 was cancelled when the last real
    // event drained, and the clock stops at the last real tick.
    EXPECT_EQ(wakes, 3);
    EXPECT_EQ(eq.now(), 35u);
    EXPECT_TRUE(eq.empty());
}

TEST(ShardedObs, KeepaliveObservesStateBeforeSameTickEvents)
{
    EventQueue eq;
    int value = 0;
    int seen = -1;
    eq.scheduleAt(10, [&] { value = 42; });
    eq.scheduleKeepalive(10, [&] { seen = value; });
    eq.run();
    // Key 0 runs first at its tick: the probe sees the state left by
    // every event with tick < 10, not the tick-10 mutation.
    EXPECT_EQ(seen, 0);
    EXPECT_EQ(value, 42);
}

} // namespace
} // namespace idyll
