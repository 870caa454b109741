/**
 * @file
 * Tests for the per-request latency attribution subsystem: log-bucket
 * histogram boundaries and exact percentile recovery, scoreboard span
 * accounting (including the sum invariant and its violation handler),
 * stale-tag handling, interval-sampler epoch alignment and ring
 * capacity, and bit-identical scoreboard/sampler output across serial
 * and parallel sweep runs.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "harness/system.hh"
#include "sim/event_queue.hh"
#include "sim/latency.hh"
#include "sim/sampler.hh"
#include "workloads/workload.hh"

namespace idyll
{
namespace
{

// --- LogHistogram ------------------------------------------------------

TEST(LogHistogram, LinearRangeBucketsAreExact)
{
    for (std::uint64_t v = 0; v < LogHistogram::kLinear; ++v) {
        EXPECT_EQ(LogHistogram::bucketIndex(v), v);
        EXPECT_EQ(LogHistogram::bucketFloor(
                      LogHistogram::bucketIndex(v)),
                  v);
    }
}

TEST(LogHistogram, LogRangeBoundaries)
{
    // First log bucket starts exactly at kLinear.
    EXPECT_EQ(LogHistogram::bucketIndex(64), 64u);
    EXPECT_EQ(LogHistogram::bucketFloor(64), 64u);

    // The largest representable value maps to the last bucket, and
    // every bucket floor is <= any value mapping into the bucket.
    const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(LogHistogram::bucketIndex(top),
              LogHistogram::kBuckets - 1);
    const std::vector<std::uint64_t> probes = {
        64, 65, 127, 128, 1000, 1ull << 20, (1ull << 40) + 12345, top};
    for (const std::uint64_t v : probes) {
        const auto idx = LogHistogram::bucketIndex(v);
        EXPECT_LT(idx, LogHistogram::kBuckets);
        EXPECT_LE(LogHistogram::bucketFloor(idx), v);
    }
    // Bucket floors are monotone across consecutive indices.
    for (std::uint32_t i = 1; i < LogHistogram::kBuckets; ++i)
        EXPECT_LT(LogHistogram::bucketFloor(i - 1),
                  LogHistogram::bucketFloor(i));
}

TEST(LogHistogram, ZeroAndSingleValue)
{
    LogHistogram h;
    EXPECT_EQ(h.percentile(50), 0u);
    h.record(0);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.percentile(1), 0u);
    EXPECT_EQ(h.percentile(99), 0u);
}

TEST(LogHistogram, ExactPercentilesBelowLinearRange)
{
    LogHistogram h;
    h.record(10);
    h.record(20);
    h.record(30, 2);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.sum(), 90u);
    EXPECT_EQ(h.percentile(1), 10u);
    EXPECT_EQ(h.percentile(50), 20u);
    EXPECT_EQ(h.percentile(75), 30u);
    EXPECT_EQ(h.percentile(100), 30u);

    LogHistogram uniform;
    for (std::uint64_t v = 0; v < 64; ++v)
        uniform.record(v);
    EXPECT_EQ(uniform.percentile(50), 31u);
    EXPECT_EQ(uniform.percentile(100), 63u);
}

TEST(LogHistogram, PercentileClampedToObservedRange)
{
    LogHistogram h;
    h.record(100);
    // 100 shares a sub-bucket whose floor is 96; the percentile must
    // still report an observed value.
    EXPECT_EQ(h.percentile(50), 100u);
    EXPECT_EQ(h.percentile(99), 100u);
}

TEST(LogHistogram, MergeMatchesCombinedRecording)
{
    LogHistogram a, b, both;
    for (std::uint64_t v : {3ull, 70ull, 500ull}) {
        a.record(v);
        both.record(v);
    }
    for (std::uint64_t v : {1ull, 9000ull}) {
        b.record(v);
        both.record(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), both.count());
    EXPECT_EQ(a.sum(), both.sum());
    EXPECT_EQ(a.min(), both.min());
    EXPECT_EQ(a.max(), both.max());
    EXPECT_EQ(a.toJson(), both.toJson());
}

// --- LatencyScoreboard -------------------------------------------------

TEST(LatencyScoreboard, SpansSumToEndToEndLatency)
{
    EventQueue eq;
    LatencyScoreboard sb(eq, 2);
    sb.begin(0, RequestKind::Demand, 0, 42, 100);
    EXPECT_TRUE(sb.active(RequestKind::Demand, 0, 42));
    sb.enter(0, RequestKind::Demand, 0, 42, LatencyPhase::L2Probe, 110);
    sb.enter(0, RequestKind::Demand, 0, 42, LatencyPhase::PtwQueue, 130);
    sb.enter(0, RequestKind::Demand, 0, 42, LatencyPhase::LocalWalk, 150);
    sb.finish(0, RequestKind::Demand, 0, 42, 250);

    EXPECT_FALSE(sb.active(RequestKind::Demand, 0, 42));
    EXPECT_EQ(sb.finished(RequestKind::Demand), 1u);
    EXPECT_EQ(sb.totalCycles(RequestKind::Demand), 150u);
    EXPECT_EQ(sb.phaseCycles(RequestKind::Demand,
                             LatencyPhase::L1Probe),
              10u);
    EXPECT_EQ(sb.phaseCycles(RequestKind::Demand,
                             LatencyPhase::L2Probe),
              20u);
    EXPECT_EQ(sb.phaseCycles(RequestKind::Demand,
                             LatencyPhase::PtwQueue),
              20u);
    EXPECT_EQ(sb.phaseCycles(RequestKind::Demand,
                             LatencyPhase::LocalWalk),
              100u);
    EXPECT_EQ(sb.violations(), 0u);
}

TEST(LatencyScoreboard, DemandMissProbedSplitsProbeOnce)
{
    EventQueue eq;
    LatencyScoreboard sb(eq, 1);
    sb.begin(0, RequestKind::Demand, 0, 7, 100);
    sb.demandMissProbed(0, 0, 7, 10, 130);
    // Re-splitting (merged secondary, backlog re-entry) is a no-op.
    sb.demandMissProbed(0, 0, 7, 10, 135);
    sb.finish(0, RequestKind::Demand, 0, 7, 140);
    EXPECT_EQ(sb.phaseCycles(RequestKind::Demand,
                             LatencyPhase::L1Probe),
              10u);
    EXPECT_EQ(sb.phaseCycles(RequestKind::Demand,
                             LatencyPhase::L2Probe),
              20u);
    EXPECT_EQ(sb.phaseCycles(RequestKind::Demand,
                             LatencyPhase::IrmbProbe),
              10u);
    EXPECT_EQ(sb.violations(), 0u);
}

TEST(LatencyScoreboard, NonMonotonicTransitionsClampWithoutViolation)
{
    EventQueue eq;
    LatencyScoreboard sb(eq, 1);
    sb.begin(0, RequestKind::Demand, 0, 9, 1000);
    sb.enter(0, RequestKind::Demand, 0, 9, LatencyPhase::Network, 1100);
    // A transition "in the past" (duplicate delivery, walk-start
    // back-dating) degrades to a zero-length span.
    sb.enter(0, RequestKind::Demand, 0, 9, LatencyPhase::FarFault, 900);
    sb.finish(0, RequestKind::Demand, 0, 9, 1200);
    EXPECT_EQ(sb.violations(), 0u);
    EXPECT_EQ(sb.totalCycles(RequestKind::Demand), 200u);
}

TEST(LatencyScoreboard, StaleTagCompletionsAreIgnored)
{
    EventQueue eq;
    LatencyScoreboard sb(eq, 1);
    sb.begin(0, RequestKind::Invalidation, 0, 5, 100, /*tag=*/3);
    sb.finish(0, RequestKind::Invalidation, 0, 5, 150, /*tag=*/2);
    EXPECT_EQ(sb.finished(RequestKind::Invalidation), 0u);
    EXPECT_TRUE(sb.active(RequestKind::Invalidation, 0, 5));
    sb.finish(0, RequestKind::Invalidation, 0, 5, 180, /*tag=*/3);
    EXPECT_EQ(sb.finished(RequestKind::Invalidation), 1u);
    EXPECT_EQ(sb.totalCycles(RequestKind::Invalidation), 80u);
}

TEST(LatencyScoreboard, NewRoundSupersedesAbandonedToken)
{
    EventQueue eq;
    LatencyScoreboard sb(eq, 1);
    sb.begin(0, RequestKind::Invalidation, 0, 5, 100, /*tag=*/1);
    // Round 1's ack never arrived; round 2 starts a fresh token.
    sb.begin(0, RequestKind::Invalidation, 0, 5, 400, /*tag=*/2);
    sb.finish(0, RequestKind::Invalidation, 0, 5, 450, /*tag=*/2);
    EXPECT_EQ(sb.finished(RequestKind::Invalidation), 1u);
    EXPECT_EQ(sb.totalCycles(RequestKind::Invalidation), 50u);
}

TEST(LatencyScoreboard, DroppedTokensRecordNothing)
{
    EventQueue eq;
    LatencyScoreboard sb(eq, 1);
    sb.begin(0, RequestKind::Demand, 0, 11, 100);
    sb.drop(0, RequestKind::Demand, 0, 11);
    EXPECT_FALSE(sb.active(RequestKind::Demand, 0, 11));
    sb.finish(0, RequestKind::Demand, 0, 11, 200);
    EXPECT_EQ(sb.finished(RequestKind::Demand), 0u);
}

TEST(LatencyScoreboard, SeededViolationTripsHandler)
{
    EventQueue eq;
    LatencyScoreboard sb(eq, 1);
    std::vector<std::string> caught;
    sb.setViolationHandler(
        [&](const std::string &msg) { caught.push_back(msg); });

    sb.begin(0, RequestKind::Demand, 0, 21, 100);
    sb.enter(0, RequestKind::Demand, 0, 21, LatencyPhase::PtwQueue, 120);
    // Inject 5 phantom cycles: spans now exceed end-to-end latency.
    sb.skewForTest(RequestKind::Demand, 0, 21, LatencyPhase::FarFault,
                   5);
    sb.finish(0, RequestKind::Demand, 0, 21, 160);

    EXPECT_EQ(sb.violations(), 1u);
    ASSERT_EQ(caught.size(), 1u);
    EXPECT_NE(caught[0].find("phase spans sum to 65"),
              std::string::npos);
    EXPECT_NE(caught[0].find("end-to-end latency is 60"),
              std::string::npos);
}

// --- IntervalSampler (unit) --------------------------------------------

TEST(IntervalSampler, RecordsStayOnEpochGrid)
{
    EventQueue eq;
    // Keep the queue busy until tick 1050 (not an epoch boundary).
    for (Tick t = 1; t <= 21; ++t)
        eq.schedule(t * 50, [] {});

    IntervalSampler sampler(eq, 100, 1024);
    std::uint64_t reads = 0;
    sampler.addChannel("ticks", kHostId, [&] { return ++reads; });
    sampler.start();
    eq.run();
    sampler.finalize();

    // Keepalive wakes fire at 100..1000; the queue cancels the chain
    // once only keepalives remain, so the run ends at the last real
    // event (1050) and finalize() takes the partial tail record there.
    ASSERT_EQ(sampler.records(), 11u);
    for (std::size_t i = 0; i + 1 < sampler.records(); ++i) {
        EXPECT_EQ(sampler.recordTick(i) % 100, 0u)
            << "record " << i << " off the epoch grid";
        EXPECT_LT(sampler.recordTick(i), sampler.recordTick(i + 1));
    }
    EXPECT_EQ(eq.now(), 1050u);
    EXPECT_EQ(sampler.recordTick(sampler.records() - 1), eq.now());
    EXPECT_EQ(sampler.dropped(), 0u);
    // Every record read the probe exactly once, in tick order.
    EXPECT_EQ(sampler.recordValue(0, 0), 1u);
    EXPECT_EQ(sampler.recordValue(sampler.records() - 1, 0), reads);
}

TEST(IntervalSampler, FinalizeCapturesRaggedTail)
{
    EventQueue eq;
    for (Tick t = 1; t <= 21; ++t)
        eq.schedule(t * 50, [] {});

    // Never started: no wake events fire, so the run ends at tick
    // 1050 (off the epoch grid) and finalize() must take the tail
    // record itself — exactly once.
    IntervalSampler sampler(eq, 100, 1024);
    sampler.addChannel("c", kHostId, [] { return 7ull; });
    eq.run();
    sampler.finalize();
    ASSERT_EQ(sampler.records(), 1u);
    EXPECT_EQ(sampler.recordTick(0), 1050u);
    sampler.finalize();
    EXPECT_EQ(sampler.records(), 1u);
}

TEST(IntervalSampler, RingDropsOldestBeyondCapacity)
{
    EventQueue eq;
    for (Tick t = 1; t <= 100; ++t)
        eq.schedule(t * 10, [] {});

    IntervalSampler sampler(eq, 10, 4);
    sampler.addChannel("c", kHostId, [] { return 1ull; });
    sampler.start();
    eq.run();
    sampler.finalize();

    EXPECT_EQ(sampler.records(), 4u);
    EXPECT_GT(sampler.dropped(), 0u);
    // Survivors are the newest records.
    EXPECT_EQ(sampler.recordTick(sampler.records() - 1), 1000u);
}

#if IDYLL_LATENCY_ENABLED

// --- run-based tests (need the hooks compiled in) ----------------------

SystemConfig
smallAttributed(SystemConfig base)
{
    base.numGpus = 2;
    base.cusPerGpu = 8;
    base.warpsPerCu = 4;
    base.accessCounterThreshold = 4;
    base.prepopulate = Prepopulate::HomeShard;
    base.latency.enabled = true;
    base.sampler.everyCycles = 256;
    return base;
}

TEST(LatencyRun, PhaseCyclesSumExactlyToEndToEndTotals)
{
    // The scoreboard's violation handler panics on any broken token,
    // so a completed run already proves the per-token invariant; this
    // checks the aggregated results too.
    const SimResults r = runOnce(
        Workload::byName("pingpong", 0.5),
        smallAttributed(SystemConfig::idyllFull()));
    ASSERT_GT(r.latDemandCount, 0u);
    std::uint64_t dsum = 0;
    for (const auto c : r.latDemandPhaseCycles)
        dsum += c;
    EXPECT_EQ(dsum, r.latDemandCycles);
    std::uint64_t isum = 0;
    for (const auto c : r.latInvalPhaseCycles)
        isum += c;
    EXPECT_EQ(isum, r.latInvalCycles);
    EXPECT_FALSE(r.latencyJson.empty());
    EXPECT_FALSE(r.samplesJson.empty());
}

TEST(LatencyRun, SamplerEpochsAlignInsideFullSystem)
{
    MultiGpuSystem system(
        smallAttributed(SystemConfig::baseline()));
    system.run(Workload::byName("pingpong", 0.5));
    const IntervalSampler *sampler = system.sampler();
    ASSERT_NE(sampler, nullptr);
    ASSERT_GE(sampler->records(), 2u);
    for (std::size_t i = 0; i + 1 < sampler->records(); ++i) {
        EXPECT_EQ(sampler->recordTick(i) % 256, 0u);
    }
    EXPECT_EQ(sampler->recordTick(sampler->records() - 1),
              system.eventQueue().now());
}

TEST(LatencyRun, SerialAndParallelSweepsProduceIdenticalOutput)
{
    const std::vector<std::string> apps = {"KM"};
    const std::vector<SchemePoint> schemes = {
        {"baseline", smallAttributed(SystemConfig::baseline())},
        {"idyll", smallAttributed(SystemConfig::idyllFull())},
    };
    const auto serial = ParallelRunner(1).runGrid(apps, schemes, 0.25);
    const auto parallel = ParallelRunner(4).runGrid(apps, schemes, 0.25);
    for (std::size_t s = 0; s < schemes.size(); ++s) {
        EXPECT_EQ(serial[s][0].latDemandCycles,
                  parallel[s][0].latDemandCycles);
        EXPECT_EQ(serial[s][0].latencyJson, parallel[s][0].latencyJson);
        EXPECT_EQ(serial[s][0].samplesJson, parallel[s][0].samplesJson);
        EXPECT_EQ(serial[s][0].toJson(), parallel[s][0].toJson());
    }
}

TEST(LatencyRun, IdyllShrinksWalkerQueueShareVsBaseline)
{
    // The PR's qualitative claim (and Fig. 5's): IDYLL removes
    // invalidation walks from the walker queue, so the share of
    // demand miss latency spent queued behind the walker shrinks.
    const auto share = [](const SimResults &r) {
        const auto i =
            static_cast<std::size_t>(LatencyPhase::PtwQueue);
        return r.latDemandCycles
                   ? static_cast<double>(r.latDemandPhaseCycles[i]) /
                         static_cast<double>(r.latDemandCycles)
                   : 0.0;
    };
    const SimResults base =
        runOnce(Workload::byName("pingpong", 0.5),
                smallAttributed(SystemConfig::baseline()));
    const SimResults idyllRun =
        runOnce(Workload::byName("pingpong", 0.5),
                smallAttributed(SystemConfig::idyllFull()));
    EXPECT_LT(share(idyllRun), share(base));
}

#endif // IDYLL_LATENCY_ENABLED

} // namespace
} // namespace idyll
