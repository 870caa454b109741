/**
 * @file
 * Sharded event-core equivalence suite (DESIGN.md section 10).
 *
 * The contract under test: a run with --shards N is BIT-IDENTICAL to
 * the same run with --shards 1 — same final translation state, same
 * SimResults (every field, via the exact JSON serialization), same
 * trace digest — for any topology, scheme, seed, and fault plan.
 *
 * Three layers:
 *  - 200 seeded randomized trials over (numGpus 2..64, scheme, seed,
 *    shard count, fault plan, tracing), each comparing a serial and a
 *    sharded run of the same tiny workload.
 *  - Direct ShardScheduler unit tests for the ordering edge cases:
 *    same-tick cross-shard deliveries execute in key order (before
 *    ordinary events), regardless of which shard deposited first.
 *  - The zero-latency degenerate case: L == 0 collapses the
 *    conservative window to a single tick; execution must stay
 *    correct (and identical to serial), merely slower.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/shard_sched.hh"
#include "harness/system.hh"
#include "sim/event_queue.hh"
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
tinyApp(std::uint64_t h, std::uint32_t numGpus)
{
    AppParams app;
    app.name = "shardtrial";
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
    app.itemsPerCu = 50 + (h >> 9) % 150;
    app.writeRatio = 0.25 * (1 + (h >> 17) % 3);
    app.pageRunLength = 1 + (h >> 21) % 4;
    app.remoteFraction = 0.3 + 0.1 * ((h >> 24) % 5);
    app.shareDegree = 2 + (h >> 27) % 3;
    app.computeMax = 8;
    if ((h >> 30) & 1) {
        app.hotFraction = 0.5;
        app.hotPages = 4;
    }
    // Wide topologies multiply the per-CU streams; shrink the per-CU
    // work so a 64-GPU trial costs about as much as a 4-GPU one.
    if (numGpus > 16) {
        app.itemsPerCu = 40;
        app.footprintPages = 64;
    }
    return app;
}

class ShardedTrial : public ::testing::TestWithParam<int>
{
};

TEST_P(ShardedTrial, MatchesSerialBitForBit)
{
    const int trial = GetParam();
    std::uint64_t h = mix64(0xC0FFEEull + static_cast<std::uint64_t>(trial));
    auto draw = [&h] {
        h = mix64(h);
        return h;
    };

    SystemConfig cfg;
    switch (draw() % 5) {
      case 0:
        cfg = SystemConfig::baseline();
        break;
      case 1:
        cfg = SystemConfig::idyllFull();
        break;
      case 2:
        cfg = SystemConfig::idyllInMem();
        break;
      case 3:
        cfg = SystemConfig::onlyLazy();
        break;
      default:
        cfg = SystemConfig::zeroLatencyInval();
        break;
    }
    // Mostly small fabrics (cheap), every 8th trial a wide one so the
    // full 2..64 topology range and the 64-bit holder masks get hit.
    cfg.numGpus = (trial % 8 == 7) ? 17 + draw() % 48 : 2 + draw() % 15;
    cfg.cusPerGpu = 2;
    cfg.warpsPerCu = 2;
    cfg.accessCounterThreshold = 8;
    cfg.prepopulate = Prepopulate::HomeShard;
    cfg.seed = draw();
    cfg.shards = 2 + draw() % 7;
    if (trial % 5 == 4) {
        // Fault injection must not break shard/serial identity: the
        // injector keys its decisions off mode-independent message
        // keys, never off arrival order.
        if (draw() & 1) {
            cfg.integrity.faultPlan = "inval.delay=800@0.3,ack.dup@0.1";
        } else {
            cfg.integrity.faultPlan = "inval.drop@0.05,ack.dup@0.1";
            cfg.integrity.invalRetryTimeout = 4000;
        }
    }
    if (trial % 10 == 3)
        cfg.trace.categories = "all"; // folds per-shard digest lanes

    const Workload workload(tinyApp(draw(), cfg.numGpus));

    SystemConfig serialCfg = cfg;
    serialCfg.shards = 1;
    MultiGpuSystem serialSys(serialCfg);
    const SimResults serial = serialSys.run(workload);
    const std::uint64_t serialDigest = serialSys.translationStateDigest();

    MultiGpuSystem shardedSys(cfg);
    const SimResults sharded = shardedSys.run(workload);
    ASSERT_GE(shardedSys.effectiveShards(), 2u)
        << "trial did not actually run sharded";

    EXPECT_GT(sharded.execTicks, 0u);
    EXPECT_EQ(shardedSys.translationStateDigest(), serialDigest);
    // The JSON serialization covers every SimResults field (including
    // the trace digest when tracing is on) with exact double
    // round-tripping, so this is the full bit-identity check.
    EXPECT_EQ(sharded.toJson(), serial.toJson());
}

INSTANTIATE_TEST_SUITE_P(TwoHundredSeededTrials, ShardedTrial,
                         ::testing::Range(0, 200));

// ------------------------------------------------------------------
// Harness-level shard resolution
// ------------------------------------------------------------------

TEST(ShardedCore, ShardRequestClampsToTopology)
{
    SystemConfig cfg = SystemConfig::baseline();
    cfg.numGpus = 2;
    cfg.shards = 64; // only host + 2 GPUs exist: clamp to 3
    MultiGpuSystem sys(cfg);
    EXPECT_EQ(sys.effectiveShards(), 3u);
    ASSERT_NE(sys.shardScheduler(), nullptr);
    EXPECT_EQ(sys.shardScheduler()->shardCount(), 3u);
}

TEST(ShardedCore, SerialOnlyFeaturesForceFallback)
{
    // The latency scoreboard shards natively (per-node op log with a
    // deterministic merge), so enabling it no longer serializes.
    SystemConfig cfg = SystemConfig::baseline();
    cfg.shards = 4;
    cfg.latency.enabled = true;
    MultiGpuSystem sys(cfg);
    EXPECT_EQ(sys.effectiveShards(), 4u);
    EXPECT_NE(sys.shardScheduler(), nullptr);

    // The oracle still probes cross-device state synchronously and
    // forces the serial fallback.
    SystemConfig oracleCfg = SystemConfig::baseline();
    oracleCfg.shards = 4;
    oracleCfg.integrity.oracle = true;
    MultiGpuSystem oracleSys(oracleCfg);
    EXPECT_EQ(oracleSys.effectiveShards(), 1u);
    EXPECT_EQ(oracleSys.shardScheduler(), nullptr);
}

// ------------------------------------------------------------------
// Same-tick cross-shard ordering (the bit-identity mechanism)
// ------------------------------------------------------------------

TEST(ShardedCore, SameTickCrossShardDeliveriesOrderByKey)
{
    EventQueue eq;
    std::vector<int> order;
    {
        ShardScheduler sched(eq, /*shards=*/2, /*numGpus=*/1,
                             /*lookahead=*/5);
        {
            // GPU 0 lives on shard 1; give it a tick-0 event that
            // deposits two same-tick deliveries to the host (shard 0)
            // in DESCENDING key order.
            ShardScope scope(sched.shardQueue(1), 1);
            eq.scheduleAt(0, [&] {
                eq.scheduleDeliveryAt(kHostId, 10, /*key=*/7,
                                      [&] { order.push_back(7); });
                eq.scheduleDeliveryAt(kHostId, 10, /*key=*/3,
                                      [&] { order.push_back(3); });
            });
        }
        // An ordinary event already sits at the same tick on shard 0.
        eq.scheduleAt(10, [&] { order.push_back(100); });
        eq.run();
    }
    // Deliveries run before same-tick ordinary events, in key order —
    // NOT in deposit order, and not after the locally scheduled event.
    EXPECT_EQ(order, (std::vector<int>{3, 7, 100}));
}

TEST(ShardedCore, DepositsFromDifferentShardsInterleaveByKey)
{
    EventQueue eq;
    std::vector<int> order;
    {
        // 2 GPUs on 2 device shards: gpu 0 -> shard 1, gpu 1 -> shard 2.
        ShardScheduler sched(eq, /*shards=*/3, /*numGpus=*/2,
                             /*lookahead=*/5);
        {
            ShardScope scope(sched.shardQueue(1), 1);
            eq.scheduleAt(0, [&] {
                eq.scheduleDeliveryAt(kHostId, 10, /*key=*/5,
                                      [&] { order.push_back(5); });
            });
        }
        {
            ShardScope scope(sched.shardQueue(2), 2);
            eq.scheduleAt(0, [&] {
                eq.scheduleDeliveryAt(kHostId, 10, /*key=*/2,
                                      [&] { order.push_back(2); });
            });
        }
        eq.run();
    }
    // The key decides; which shard's outbox drained first does not.
    EXPECT_EQ(order, (std::vector<int>{2, 5}));
}

TEST(ShardedCore, ClockSnapBackKeepsLaterSchedulesInOrder)
{
    // An unbounded sharded drain snaps every shard's clock back to the
    // last real tick. Here shard 1's final window runs a keepalive
    // chain three wheel spans past that tick, so the cancelled wake it
    // leaves behind (tick 14337) shares a wheel slot with tick 2049 of
    // the snapped-back clock. Events scheduled afterwards at 2049 and
    // 14337 must still run in exact (tick, key, seq) order. Each shard
    // logs to its own vector: shards run a window concurrently.
    constexpr Tick kSpan = EventQueue::kWheelSpan;
    using Log = std::vector<std::pair<int, Tick>>;
    EventQueue eq;
    Log hostLog;
    Log gpuLog;
    {
        ShardScheduler sched(eq, /*shards=*/2, /*numGpus=*/1,
                             /*lookahead=*/3 * kSpan);
        EventQueue &gpuShard = sched.shardQueue(1);
        std::function<void()> wake = [&] {
            eq.scheduleKeepalive(kSpan / 2, wake);
        };
        {
            ShardScope scope(gpuShard, 1);
            eq.scheduleKeepalive(1, wake);
        }
        eq.scheduleAt(100, [&] { hostLog.push_back({0, eq.now()}); });
        EXPECT_EQ(eq.run(), 100u);
        EXPECT_EQ(gpuShard.now(), 100u);
        EXPECT_EQ(eq.pending(), 0u);

        auto log = [&](int id) {
            return [&gpuLog, &eq, id] { gpuLog.push_back({id, eq.now()}); };
        };
        {
            ShardScope scope(gpuShard, 1);
            eq.scheduleAt(14337, log(1));
            eq.scheduleAt(2049, log(2));
            eq.scheduleDelivery(2049, /*key=*/5, log(3));
            eq.scheduleDelivery(14337, /*key=*/9, log(4));
            eq.scheduleAt(6145, log(5));
            eq.scheduleAt(2049, log(6));
        }
        eq.scheduleAt(2049, [&] { hostLog.push_back({7, eq.now()}); });
        EXPECT_EQ(eq.run(), 14337u);
    }
    EXPECT_EQ(hostLog, (Log{{0, 100}, {7, 2049}}));
    EXPECT_EQ(gpuLog, (Log{{3, 2049},
                           {2, 2049},
                           {6, 2049},
                           {5, 6145},
                           {4, 14337},
                           {1, 14337}}));
}

// ------------------------------------------------------------------
// Zero-latency degenerate windows
// ------------------------------------------------------------------

TEST(ShardedCore, ZeroLookaheadLockstepStaysCorrect)
{
    // L == 0 collapses every window to the single tick T. A message
    // sent at T still arrives at T + ser >= T + 1 > horizon, so the
    // deposit invariant holds and a tick-by-tick cross-shard ping-pong
    // runs in exact time order.
    EventQueue eq;
    std::vector<std::uint32_t> shardsSeen;
    std::vector<Tick> ticksSeen;
    {
        ShardScheduler sched(eq, /*shards=*/2, /*numGpus=*/1,
                             /*lookahead=*/0);
        std::function<void()> bounce = [&] {
            shardsSeen.push_back(EventQueue::currentShard());
            ticksSeen.push_back(eq.now());
            if (ticksSeen.size() >= 6)
                return;
            // Host (shard 0) sends to gpu 0 (shard 1) and vice versa.
            const GpuId target =
                EventQueue::currentShard() == 0 ? 0 : kHostId;
            eq.scheduleDeliveryAt(target, eq.now() + 1,
                                  /*key=*/ticksSeen.size(), bounce);
        };
        eq.scheduleAt(0, bounce); // starts on the root (host) shard
        eq.run();
        EXPECT_GE(sched.windows(), 6u); // one window per populated tick
    }
    EXPECT_EQ(shardsSeen,
              (std::vector<std::uint32_t>{0, 1, 0, 1, 0, 1}));
    EXPECT_EQ(ticksSeen, (std::vector<Tick>{0, 1, 2, 3, 4, 5}));
}

TEST(ShardedCore, ZeroLatencyLinksMatchSerial)
{
    // Full-system version of the degenerate case: zero-latency links
    // make the lookahead window one tick wide, the slowest legal
    // schedule. Results must still be bit-identical to serial.
    SystemConfig cfg = SystemConfig::idyllFull();
    cfg.numGpus = 2;
    cfg.cusPerGpu = 2;
    cfg.warpsPerCu = 2;
    cfg.accessCounterThreshold = 8;
    cfg.prepopulate = Prepopulate::HomeShard;
    cfg.interGpuLink.latency = 0;
    cfg.hostLink.latency = 0;
    cfg.shards = 3;

    AppParams app;
    app.name = "zerolat";
    app.pattern = SharePattern::Random;
    app.footprintPages = 16;
    app.itemsPerCu = 30;
    app.writeRatio = 0.5;
    app.remoteFraction = 0.5;
    app.pageRunLength = 2;
    app.shareDegree = 2;
    const Workload workload(app);

    SystemConfig serialCfg = cfg;
    serialCfg.shards = 1;
    MultiGpuSystem serialSys(serialCfg);
    const SimResults serial = serialSys.run(workload);
    const std::uint64_t serialDigest = serialSys.translationStateDigest();

    MultiGpuSystem shardedSys(cfg);
    const SimResults sharded = shardedSys.run(workload);
    ASSERT_EQ(shardedSys.effectiveShards(), 3u);

    EXPECT_EQ(shardedSys.translationStateDigest(), serialDigest);
    EXPECT_EQ(sharded.toJson(), serial.toJson());
}

} // namespace
} // namespace idyll
