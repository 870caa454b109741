/**
 * @file
 * Tests for the simulation integrity subsystem: fault-plan parsing,
 * injector determinism, the translation-coherence oracle (including
 * seeded protocol violations it must catch), the no-progress
 * watchdog, and end-to-end oracle-clean / fault-convergence runs.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "core/shard_sched.hh"
#include "harness/cli.hh"
#include "harness/runner.hh"
#include "harness/system.hh"
#include "sim/event_queue.hh"
#include "sim/integrity.hh"
#include "workloads/workload.hh"

namespace idyll
{
namespace
{

// ------------------------------------------------------------------
// Fault plans
// ------------------------------------------------------------------

TEST(FaultPlan, ParsesFullGrammar)
{
    std::string err;
    auto plan = parseFaultPlan(
        "inval.delay=800@0.3,ack.dup@0.2,inval.drop@0.05,"
        "migreq.delay=100",
        &err);
    ASSERT_TRUE(plan) << err;
    ASSERT_EQ(plan->rules.size(), 4u);

    EXPECT_EQ(plan->rules[0].msg, FaultMsg::Inval);
    EXPECT_EQ(plan->rules[0].action, FaultRule::Action::Delay);
    EXPECT_EQ(plan->rules[0].value, 800u);
    EXPECT_NEAR(plan->rules[0].probability, 0.3, 1e-9);

    EXPECT_EQ(plan->rules[1].msg, FaultMsg::Ack);
    EXPECT_EQ(plan->rules[1].action, FaultRule::Action::Duplicate);
    EXPECT_EQ(plan->rules[1].value, 500u); // default copy delay

    EXPECT_EQ(plan->rules[2].action, FaultRule::Action::Drop);
    EXPECT_EQ(plan->rules[3].msg, FaultMsg::MigReq);
    EXPECT_TRUE(plan->hasDrops());
}

TEST(FaultPlan, EmptyPlanIsEmpty)
{
    std::string err;
    auto plan = parseFaultPlan("", &err);
    ASSERT_TRUE(plan) << err;
    EXPECT_TRUE(plan->empty());
    EXPECT_FALSE(plan->hasDrops());
}

TEST(FaultPlan, RejectsIllegalRules)
{
    const char *bad[] = {
        "inval.teleport",    // unknown action
        "warp.delay=100",    // unknown message class
        "migreq.drop",       // unrecoverable: no retry path
        "inval.delay",       // delay needs a cycle count
        "inval.delay=0",     // zero delay is a no-op
        "inval.drop=100",    // drop takes no value
        "inval.delay=10@2",  // probability outside [0, 1]
        "inval.delay=10@-1", // probability outside [0, 1]
        "ack",               // missing '.'
    };
    for (const char *text : bad) {
        std::string err;
        EXPECT_FALSE(parseFaultPlan(text, &err)) << text;
        EXPECT_FALSE(err.empty()) << text;
    }
}

TEST(FaultInjector, DeterministicForFixedSeed)
{
    std::string err;
    auto plan = parseFaultPlan(
        "inval.delay=100@0.5,ack.dup@0.3,inval.drop@0.2", &err);
    ASSERT_TRUE(plan) << err;

    FaultInjector a(*plan, 1234);
    FaultInjector b(*plan, 1234);
    for (int i = 0; i < 600; ++i) {
        const auto msg = static_cast<FaultMsg>(i % 3);
        // Decisions are a pure hash of (seed, message key, rule), so
        // two injectors with the same seed agree key by key.
        const auto key = static_cast<std::uint64_t>(i);
        const auto da = a.decide(msg, key);
        const auto db = b.decide(msg, key);
        EXPECT_EQ(da.drop, db.drop);
        EXPECT_EQ(da.extraDelay, db.extraDelay);
        EXPECT_EQ(da.duplicate, db.duplicate);
        EXPECT_EQ(da.duplicateDelay, db.duplicateDelay);
    }
    a.foldStats();
    b.foldStats();
    EXPECT_EQ(a.stats().delayed.value(), b.stats().delayed.value());
    EXPECT_EQ(a.stats().duplicated.value(),
              b.stats().duplicated.value());
    EXPECT_EQ(a.stats().dropped.value(), b.stats().dropped.value());
    // With 200 rolls per class, every rule fires at least once.
    EXPECT_GT(a.stats().delayed.value(), 0u);
    EXPECT_GT(a.stats().duplicated.value(), 0u);
    EXPECT_GT(a.stats().dropped.value(), 0u);
}

// ------------------------------------------------------------------
// Oracle unit behaviour
// ------------------------------------------------------------------

TEST(Oracle, CleanProtocolFinalizes)
{
    EventQueue eq;
    TranslationOracle oracle(eq, 2, 64);
    oracle.setIrmbProbe([](GpuId, Vpn) { return true; });

    oracle.onHostInstall(3, 10);
    oracle.onLocalInstall(0, 3, 10, true);
    oracle.onServeFromLocalPte(0, 3, 10, /*write=*/true);

    // Migrate: round targets the holder, holder drops, round done.
    oracle.onInvalRoundStart(3, 1, 0x1u);
    oracle.onLocalDrop(0, 3);
    oracle.onInvalRoundComplete(3, 1);

    oracle.onHostInstall(3, 11);
    oracle.onLocalInstall(1, 3, 11, true);
    oracle.onServeFromLocalPte(1, 3, 11, /*write=*/false);

    oracle.finalize();
    EXPECT_GT(oracle.checks(), 0u);
    EXPECT_GT(oracle.trace().recorded(), 0u);
}

TEST(Oracle, BufferedInvalidationMayDrainLater)
{
    EventQueue eq;
    TranslationOracle oracle(eq, 2, 64);
    oracle.setIrmbProbe([](GpuId, Vpn) { return false; });

    oracle.onHostInstall(4, 20);
    oracle.onLocalInstall(0, 4, 20, false);
    // Lazy apply: the round completes while the PTE write sits in the
    // IRMB; buffered holders are exempt from the round checks.
    oracle.onInvalRoundStart(4, 1, 0x1u);
    oracle.onInvalBuffered(0, 4);
    oracle.onInvalRoundComplete(4, 1);
    oracle.onInvalDrained(0, 4);

    oracle.finalize(); // drained: nothing left to probe
}

TEST(OracleDeath, UnderInvalidationIsFatal)
{
    EventQueue eq;
    TranslationOracle oracle(eq, 4, 64);
    oracle.onHostInstall(5, 100);
    oracle.onLocalInstall(0, 5, 100, true);
    oracle.onLocalInstall(1, 5, 100, false);
    // The round misses GPU 1, which still holds a servable mapping.
    EXPECT_DEATH(oracle.onInvalRoundStart(5, 1, 0x1u),
                 "under-invalidation");
}

TEST(OracleDeath, LostIrmbDrainIsFatal)
{
    EventQueue eq;
    TranslationOracle oracle(eq, 2, 64);
    // The probe says the entry is gone from the real IRMB, yet no
    // drain was ever reported: the invalidation was lost.
    oracle.setIrmbProbe([](GpuId, Vpn) { return false; });
    oracle.onHostInstall(9, 50);
    oracle.onLocalInstall(0, 9, 50, false);
    oracle.onInvalBuffered(0, 9);
    EXPECT_DEATH(oracle.finalize(), "lost invalidation");
}

TEST(OracleDeath, ServeAfterRoundCompleteIsFatal)
{
    EventQueue eq;
    TranslationOracle oracle(eq, 2, 64);
    oracle.onHostInstall(7, 42);
    oracle.onLocalInstall(1, 7, 42, true);
    oracle.onInvalRoundStart(7, 1, 0x2u);
    oracle.onLocalDrop(1, 7);
    oracle.onInvalRoundComplete(7, 1);
    EXPECT_DEATH(oracle.onServeFromLocalPte(1, 7, 42, false),
                 "served");
}

TEST(OracleDeath, WrongPfnServeIsFatal)
{
    EventQueue eq;
    TranslationOracle oracle(eq, 2, 64);
    oracle.onHostInstall(8, 60);
    oracle.onLocalInstall(0, 8, 60, true);
    EXPECT_DEATH(oracle.onServeFromLocalPte(0, 8, 61, false),
                 "does not match");
}

TEST(OracleDeath, ViolationNamesOwningShard)
{
    // With a shard map installed, a violation report attributes the
    // offending GPU to the event-core shard it would execute on in a
    // --shards run: gpu g -> shard 1 + g % (shards - 1). Oracle runs
    // themselves are serialized, so this is what lets a serial repro
    // of a sharded failure name the shard to stare at.
    EventQueue eq;
    TranslationOracle oracle(eq, 2, 64);
    oracle.setShardMap(3); // host shard + 2 device shards
    oracle.onHostInstall(7, 42);
    oracle.onLocalInstall(1, 7, 42, true);
    oracle.onInvalRoundStart(7, 1, 0x2u);
    oracle.onLocalDrop(1, 7);
    oracle.onInvalRoundComplete(7, 1);
    // GPU 1 maps to shard 1 + 1 % 2 == 2.
    EXPECT_DEATH(oracle.onServeFromLocalPte(1, 7, 42, false),
                 "served after invalidation.*\\[shard 2\\]");
}

// ------------------------------------------------------------------
// Watchdog
// ------------------------------------------------------------------

TEST(Watchdog, QuietWhenProgressIsReported)
{
    EventQueue eq;
    eq.configureWatchdog(/*maxIdleEvents=*/10, /*maxIdleTicks=*/0);
    for (int i = 0; i < 100; ++i)
        eq.schedule(i + 1, [&] { eq.noteProgress(); });
    eq.run();
    EXPECT_EQ(eq.executed(), 100u);
}

TEST(WatchdogDeath, TripsOnSchedulingCycle)
{
    EXPECT_EXIT(
        {
            EventQueue eq;
            eq.configureWatchdog(/*maxIdleEvents=*/200,
                                 /*maxIdleTicks=*/0,
                                 [](std::ostream &os) {
                                     os << "cycle diagnostics\n";
                                 });
            // An event that reschedules itself forever and never
            // reports progress: the classic livelocked protocol.
            std::function<void()> spin;
            spin = [&] { eq.schedule(1, spin); };
            eq.schedule(1, spin);
            eq.run();
        },
        ::testing::ExitedWithCode(kWatchdogExitCode), "watchdog");
}

TEST(WatchdogDeath, ShardedTripNamesTheStalledShard)
{
    // In a sharded run the watchdog is fanned out per shard; a
    // livelock confined to one device shard must be attributed to
    // THAT shard in the report (and keep the distinct exit code).
    EXPECT_EXIT(
        {
            EventQueue eq;
            ShardScheduler sched(eq, /*shards=*/2, /*numGpus=*/1,
                                 /*lookahead=*/5);
            eq.configureWatchdog(/*maxIdleEvents=*/200,
                                 /*maxIdleTicks=*/0);
            std::function<void()> spin;
            spin = [&] { eq.schedule(1, spin); };
            {
                // The livelocked protocol runs on gpu 0's shard (1);
                // shard 0 stays healthy and idle.
                ShardScope scope(sched.shardQueue(1), 1);
                eq.scheduleAt(0, spin);
            }
            eq.run();
        },
        ::testing::ExitedWithCode(kWatchdogExitCode),
        "watchdog\\[shard 1\\]");
}

// ------------------------------------------------------------------
// End to end
// ------------------------------------------------------------------

SystemConfig
smallConfig(const std::string &scheme)
{
    auto preset = schemeByName(scheme);
    EXPECT_TRUE(preset) << scheme;
    SystemConfig cfg = scaledForSim(*preset);
    cfg.cusPerGpu = 16; // keep the full-system runs quick
    return cfg;
}

constexpr double kSmokeScale = 0.05;

TEST(IntegrityE2E, OracleCleanAcrossSchemes)
{
    for (const char *scheme : {"baseline", "idyll", "inmem", "zero"}) {
        SystemConfig cfg = smallConfig(scheme);
        cfg.integrity.oracle = true;
        MultiGpuSystem system(cfg);
        system.run(Workload::byName("KM", kSmokeScale));
        ASSERT_NE(system.oracle(), nullptr);
        EXPECT_GT(system.oracle()->checks(), 0u) << scheme;
    }
}

TEST(IntegrityE2E, OracleCleanOnTlbHitDuringInstallWalk)
{
    // An update walk writes the PTE when it is dispatched, but the
    // oracle learns of the install only in the walk's done-callback.
    // A TLB hit in that window must not be checked against the
    // lagging shadow state. This run (8 GPUs, seed 2) hits the window.
    SystemConfig cfg = smallConfig("idyll");
    cfg.numGpus = 8;
    cfg.seed = 2;
    cfg.integrity.oracle = true;
    MultiGpuSystem system(cfg);
    system.run(Workload::byName("KM", 0.25));
    EXPECT_GT(system.oracle()->checks(), 0u);
}

TEST(IntegrityE2EDeath, SuppressedInvalidationCaughtByOracle)
{
    EXPECT_DEATH(
        {
            SystemConfig cfg = smallConfig("baseline");
            cfg.migrationPolicy = MigrationPolicy::OnTouch;
            cfg.integrity.oracle = true;
            MultiGpuSystem system(cfg);
            // Mutation: the driver silently skips every invalidation
            // aimed at GPU 0 -- exactly the under-invalidation bug
            // class the oracle exists to catch.
            system.driver().suppressInvalTargetsForTest(
                [](GpuId g, Vpn) { return g == 0; });
            system.run(Workload::byName("KM", kSmokeScale));
        },
        "under-invalidation");
}

TEST(IntegrityE2E, FaultedRunIsDeterministicAndConverges)
{
    SystemConfig clean = smallConfig("idyll");
    std::uint64_t cleanDigest = 0;
    {
        MultiGpuSystem system(clean);
        system.run(Workload::byName("KM", kSmokeScale));
        cleanDigest = system.translationStateDigest();
    }

    auto faultedRun = [&](const std::string &plan) {
        SystemConfig faulted = clean;
        faulted.integrity.oracle = true;
        faulted.integrity.faultPlan = plan;
        faulted.integrity.invalRetryTimeout = 20000;
        MultiGpuSystem system(faulted);
        system.run(Workload::byName("KM", kSmokeScale));
        const FaultStats &fs = system.faultInjector()->stats();
        EXPECT_GT(fs.delayed.value() + fs.duplicated.value() +
                      fs.dropped.value(),
                  0u);
        return system.translationStateDigest();
    };

    // Duplicated acks are absorbed by the driver without generating
    // any response traffic, so they perturb no message timing: the
    // faulted run must reproduce the fault-free final page-table
    // state bit for bit.
    EXPECT_EQ(faultedRun("ack.dup@0.5"), cleanDigest);

    // Delays, drops, and duplicated invalidations shift when
    // migrations complete, which legitimately changes access-counter
    // placement decisions — final placement may differ from the
    // fault-free run. What must hold: the run is exactly reproducible
    // for a fixed seed, and the oracle + final TLB verification (both
    // active here) prove the state it converges to is consistent.
    const std::string perturbing =
        "inval.delay=800@0.3,ack.dup@0.2,inval.drop@0.1";
    const std::uint64_t first = faultedRun(perturbing);
    const std::uint64_t second = faultedRun(perturbing);
    EXPECT_EQ(first, second);
}

TEST(IntegrityE2E, DroppedInvalidationsRecoveredByRetry)
{
    SystemConfig cfg = smallConfig("baseline");
    cfg.migrationPolicy = MigrationPolicy::OnTouch;
    cfg.integrity.oracle = true;
    cfg.integrity.faultPlan = "inval.drop@0.2,ack.drop@0.2";
    cfg.integrity.invalRetryTimeout = 20000;
    MultiGpuSystem system(cfg);
    system.run(Workload::byName("KM", kSmokeScale));
    const DriverStats &ds = system.driver().stats();
    EXPECT_GT(ds.invalRetries.value(), 0u);
    EXPECT_GT(ds.invalRetryTimeouts.value(), 0u);
    // Every migration still completed: nothing left in flight.
    EXPECT_GT(system.oracle()->checks(), 0u);
}

TEST(IntegrityE2E, RetryBackoffIsInertWithoutFaults)
{
    // The capped-exponential retry timer draws jitter from a seeded
    // RNG — but only from the second attempt on. A fault-free run
    // never retries, so arming the timer must not perturb the
    // simulation at all: identical digest AND identical final tick
    // with the timer armed, disarmed, or set to a different base.
    auto run = [](Cycles retryTimeout) {
        SystemConfig cfg = smallConfig("idyll");
        cfg.integrity.invalRetryTimeout = retryTimeout;
        MultiGpuSystem system(cfg);
        const SimResults r =
            system.run(Workload::byName("KM", kSmokeScale));
        return std::make_pair(system.translationStateDigest(),
                              r.execTicks);
    };
    const auto disarmed = run(0);
    EXPECT_EQ(run(20000), disarmed);
    EXPECT_EQ(run(500), disarmed);
}

TEST(IntegrityE2E, RetryBackoffDelaysGrowDeterministically)
{
    // Under heavy ack drops the same seed must produce the same
    // retry schedule (seeded jitter, no wall-clock anywhere).
    auto run = [] {
        SystemConfig cfg = smallConfig("baseline");
        cfg.migrationPolicy = MigrationPolicy::OnTouch;
        cfg.integrity.oracle = true;
        cfg.integrity.faultPlan = "ack.drop@0.5";
        cfg.integrity.invalRetryTimeout = 5000;
        MultiGpuSystem system(cfg);
        const SimResults r =
            system.run(Workload::byName("KM", kSmokeScale));
        const DriverStats &ds = system.driver().stats();
        EXPECT_GT(ds.invalRetries.value(), 0u);
        return std::make_pair(r.execTicks, ds.invalRetries.value());
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace idyll
