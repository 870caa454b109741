/**
 * @file
 * Device-loss fault domain tests: unplug-plan parsing (all errors
 * collected, carets under offending tokens), chaos plan generation
 * determinism, network unreachable-peer fail-fast, latency-token
 * abort dispositions, end-to-end unplug recovery (oracle-clean,
 * deterministic, windows close), the degraded serve preset, and the
 * chaos soak harness' classify-and-minimize path under a forced
 * failure.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "harness/chaos.hh"
#include "harness/cli.hh"
#include "harness/runner.hh"
#include "harness/serve.hh"
#include "harness/system.hh"
#include "sim/fault_domain.hh"
#include "sim/integrity.hh"
#include "sim/latency.hh"
#include "workloads/workload.hh"

namespace idyll
{
namespace
{

SystemConfig
faultDomainConfig(const std::string &scheme = "idyll")
{
    auto preset = schemeByName(scheme);
    EXPECT_TRUE(preset) << scheme;
    SystemConfig cfg = scaledForSim(*preset);
    cfg.numGpus = 4;
    cfg.cusPerGpu = 16; // keep the full-system runs quick
    cfg.integrity.oracle = true;
    return cfg;
}

constexpr double kSmokeScale = 0.05;

// --- unplug plan grammar -----------------------------------------------

TEST(UnplugPlan, ParsesFullGrammar)
{
    std::string err;
    auto plan = parseUnplugPlan("g1@60000/140000,g2@90000", &err);
    ASSERT_TRUE(plan) << err;
    ASSERT_EQ(plan->events.size(), 2u);
    EXPECT_EQ(plan->events[0].gpu, 1u);
    EXPECT_EQ(plan->events[0].unplugTick, 60000u);
    EXPECT_EQ(plan->events[0].reattachTick, 140000u);
    EXPECT_EQ(plan->events[1].gpu, 2u);
    EXPECT_EQ(plan->events[1].unplugTick, 90000u);
    EXPECT_EQ(plan->events[1].reattachTick, 0u);
    EXPECT_EQ(formatUnplugPlan(*plan), "g1@60000/140000,g2@90000");
}

TEST(UnplugPlan, CollectsEveryInvalidEventWithACaret)
{
    // One round trip fixes them all: BOTH bad events must appear in
    // the single message, each with a caret underline.
    std::string err;
    EXPECT_FALSE(parseUnplugPlan("g1@100,bogus,g2@50/40", &err));
    EXPECT_NE(err.find("2 invalid events"), std::string::npos) << err;
    std::size_t carets = 0;
    for (char c : err)
        if (c == '^')
            ++carets;
    EXPECT_EQ(carets, 2u) << err;
}

TEST(FaultPlanErrors, CollectsEveryInvalidRuleWithACaret)
{
    std::string err;
    EXPECT_FALSE(parseFaultPlan(
        "inval.teleport,ack.drop@2,inval.delay=800@0.3", &err));
    EXPECT_NE(err.find("2 invalid rules"), std::string::npos) << err;
    std::size_t carets = 0;
    for (char c : err)
        if (c == '^')
            ++carets;
    EXPECT_EQ(carets, 2u) << err;
}

// --- chaos plan generation ---------------------------------------------

TEST(ChaosPlans, UnplugPlanIsDeterministicAndValid)
{
    const std::string a = makeChaosUnplugPlan(7, 4, 160000);
    const std::string b = makeChaosUnplugPlan(7, 4, 160000);
    EXPECT_EQ(a, b);

    std::string err;
    auto plan = parseUnplugPlan(a, &err);
    ASSERT_TRUE(plan) << err;
    ASSERT_EQ(plan->events.size(), 1u);
    EXPECT_LT(plan->events[0].gpu, 4u);
    EXPECT_GE(plan->events[0].unplugTick, 160000u / 4);
    EXPECT_LE(plan->events[0].unplugTick, 3u * (160000u / 4));

    // Distinct seeds must be able to pick distinct schedules.
    bool differs = false;
    for (std::uint64_t s = 0; s < 16 && !differs; ++s)
        differs = makeChaosUnplugPlan(s, 4, 160000) != a;
    EXPECT_TRUE(differs);
}

TEST(ChaosPlans, FaultRulesAreDeterministicAndParseable)
{
    const auto a = makeChaosFaultRules(1234);
    EXPECT_EQ(a, makeChaosFaultRules(1234));
    ASSERT_GE(a.size(), 1u);
    ASSERT_LE(a.size(), 3u);
    for (const std::string &rule : a) {
        std::string err;
        EXPECT_TRUE(parseFaultPlan(rule, &err)) << rule << ": " << err;
    }
}

// --- network fail-fast -------------------------------------------------

TEST(NetworkFaultDomain, UnreachablePeerFailsFastAndRecovers)
{
    SystemConfig cfg = faultDomainConfig();
    EventQueue eq;
    Network net(eq, cfg);

    bool delivered = false;
    net.markUnreachable(1);
    net.send(0, 1, 64, MsgClass::RemoteData, [&] { delivered = true; });
    net.send(1, 0, 64, MsgClass::RemoteData, [&] { delivered = true; });
    eq.run();
    EXPECT_FALSE(delivered);
    EXPECT_EQ(net.unreachableDrops(), 2u);
    EXPECT_FALSE(net.reachable(1));

    net.markReachable(1);
    net.send(0, 1, 64, MsgClass::RemoteData, [&] { delivered = true; });
    eq.run();
    EXPECT_TRUE(delivered);
    EXPECT_EQ(net.unreachableDrops(), 2u);
}

// --- latency-token aborts ----------------------------------------------

TEST(LatencyFaultDomain, AbortedTokensAreCountedNotTimed)
{
    LatencyScoreboard sb(4);
    sb.begin(1, RequestKind::Demand, 1, 42, 100);
    sb.begin(1, RequestKind::Demand, 1, 43, 100);
    sb.begin(2, RequestKind::Demand, 2, 44, 100);
    sb.begin(1, RequestKind::Invalidation, 1, 45, 100);

    sb.abort(1, RequestKind::Demand, 1, 42);
    EXPECT_FALSE(sb.active(RequestKind::Demand, 1, 42));
    EXPECT_EQ(sb.abortAllForGpu(1), 2u); // 43 + the invalidation
    EXPECT_TRUE(sb.active(RequestKind::Demand, 2, 44));

    EXPECT_EQ(sb.aborted(RequestKind::Demand), 2u);
    EXPECT_EQ(sb.aborted(RequestKind::Invalidation), 1u);

    // Aborted tokens never reach the histograms or finished counts.
    const LatencyWindow w = sb.snapshotAndReset();
    EXPECT_EQ(w.finished[static_cast<std::size_t>(RequestKind::Demand)],
              0u);
    EXPECT_EQ(w.aborted[static_cast<std::size_t>(RequestKind::Demand)],
              2u);
}

// --- end-to-end recovery -----------------------------------------------

TEST(FaultDomainE2E, UnplugRecoversCleanAndDeterministic)
{
    auto run = [](std::uint64_t seed) {
        SystemConfig cfg = faultDomainConfig();
        cfg.seed = seed;
        cfg.integrity.unplugPlan = "g1@10000";
        MultiGpuSystem system(cfg);
        const SimResults r =
            system.run(Workload::byName("KM", kSmokeScale));
        // The victim's pre-unplug accesses still reach the driver's
        // sharing-degree accounting.
        EXPECT_EQ(std::accumulate(r.sharingBuckets.begin(),
                                  r.sharingBuckets.end(),
                                  std::uint64_t{0}),
                  r.accesses);

        const DriverStats &ds = system.driver().stats();
        EXPECT_EQ(ds.gpusUnplugged.value(), 1u);
        EXPECT_TRUE(system.driver().isDead(1));
        EXPECT_EQ(system.driver().deadMask(), 0x2u);

        const auto &recoveries = system.driver().recoveryWindows();
        EXPECT_EQ(recoveries.size(), 1u);
        for (const RecoveryWindow &rw : recoveries) {
            EXPECT_EQ(rw.gpu, 1u);
            EXPECT_GT(rw.endTick, rw.startTick); // recovery closed
            EXPECT_EQ(rw.pendingOps, 0u);
        }
        // Round-robin prepopulation homes ~1/4 of the footprint on
        // the victim; every one of those pages must be re-homed.
        EXPECT_GT(ds.rehomedPages.value() + ds.replicasPromoted.value(),
                  0u);
        EXPECT_NE(system.oracle(), nullptr);
        if (system.oracle()) {
            EXPECT_GT(system.oracle()->checks(), 0u);
        }
        return system.translationStateDigest();
    };
    // Same seed -> bit-identical final translation state, twice.
    EXPECT_EQ(run(42), run(42));
}

TEST(FaultDomainE2E, ReattachedGpuRunsCleanAndCold)
{
    SystemConfig cfg = faultDomainConfig();
    cfg.integrity.unplugPlan = "g2@8000/20000";
    MultiGpuSystem system(cfg);
    system.run(Workload::byName("KM", kSmokeScale));

    const DriverStats &ds = system.driver().stats();
    EXPECT_EQ(ds.gpusUnplugged.value(), 1u);
    EXPECT_EQ(ds.gpusReattached.value(), 1u);
    EXPECT_FALSE(system.driver().isDead(2));
    EXPECT_EQ(system.driver().deadMask(), 0u);
}

TEST(FaultDomainE2E, ReplicationPromotesSurvivingReplicas)
{
    SystemConfig cfg = faultDomainConfig("replication");
    cfg.integrity.unplugPlan = "g1@10000";
    MultiGpuSystem system(cfg);
    system.run(Workload::byName("pingpong", kSmokeScale));
    const DriverStats &ds = system.driver().stats();
    EXPECT_EQ(ds.gpusUnplugged.value(), 1u);
    // pingpong's shared hot set replicates aggressively; at least one
    // dead-homed page must have found a surviving replica to promote
    // instead of paying a host copy.
    EXPECT_GT(ds.replicasPromoted.value(), 0u);
}

TEST(FaultDomainE2E, ConfigRejectsBadUnplugPlans)
{
    SystemConfig cfg = faultDomainConfig();
    cfg.integrity.unplugPlan = "g9@100";
    EXPECT_THROW(cfg.validate(), ConfigError); // gpu out of range

    cfg.integrity.unplugPlan = "g0@5,g1@6,g2@7,g3@8";
    EXPECT_THROW(cfg.validate(), ConfigError); // kills every GPU

    cfg.integrity.unplugPlan = "g1@100";
    cfg.transFw.enabled = true;
    EXPECT_THROW(cfg.validate(), ConfigError); // no peer-timeout model
}

// --- degraded serve ----------------------------------------------------

TEST(DegradedServe, PresetReportsRecoveryAndPhasedTails)
{
    auto spec = serveSpecByName("degraded");
    ASSERT_TRUE(spec);
    // Shrink the drill to test size: same shape, smaller footprint.
    spec->scale = 0.1;
    spec->params.unplugPlan = "g1@30000";
    spec->params.warmupWindows = 1;
    spec->params.windowCycles = 10000;
    spec->params.maxWindows = 8;
    const ServeReport report = runServeSpec(*spec);

    EXPECT_EQ(report.unplugs, 1u);
    EXPECT_GT(report.recoveryTimeCycles, 0u);
    EXPECT_GT(report.rehomedPages + report.promotedReplicas, 0u);
    EXPECT_GT(report.preLossFinished, 0u);
    EXPECT_GT(report.duringRecoveryFinished + report.postRecoveryFinished,
              0u);

    bool sawDuringOrPost = false;
    for (const ServeWindow &w : report.windows)
        sawDuringOrPost =
            sawDuringOrPost || w.phase != ServePhase::PreLoss;
    EXPECT_TRUE(sawDuringOrPost);

    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"recoveryTimeCycles\":"), std::string::npos);
    EXPECT_NE(json.find("\"rehomedPages\":"), std::string::npos);
    EXPECT_NE(json.find("\"duringRecoveryP99\":"), std::string::npos);
    EXPECT_NE(json.find("\"phase\":"), std::string::npos);
}

TEST(DegradedServe, FaultFreeArtifactHasNoDegradedKeys)
{
    // A run that never unplugged must emit exactly the schema the
    // committed baselines pin — no degraded keys, no phase fields.
    SystemConfig cfg = faultDomainConfig();
    cfg.integrity.oracle = false;
    ServeParams params;
    params.windowCycles = 10000;
    params.warmupWindows = 1;
    params.maxWindows = 4;
    const ServeReport report =
        runServe("pingpong", cfg, kSmokeScale, params);
    EXPECT_EQ(report.unplugs, 0u);
    const std::string json = report.toJson();
    EXPECT_EQ(json.find("\"unplugs\":"), std::string::npos);
    EXPECT_EQ(json.find("\"phase\":"), std::string::npos);
    EXPECT_EQ(json.find("\"unplugPlan\":"), std::string::npos);
}

// --- chaos soak --------------------------------------------------------

TEST(ChaosSoak, SeededCampaignPassesAndReportsTrials)
{
    ChaosOptions opts;
    opts.seed = 7;
    opts.maxTrials = 2;
    opts.app = "KM";
    opts.scheme = "idyll";
    opts.scale = kSmokeScale;
    opts.baseCfg = faultDomainConfig();
    const ChaosReport report = runChaosSoak(opts);
    EXPECT_EQ(report.trials, 2u);
    EXPECT_EQ(report.passed, 2u);
    EXPECT_FALSE(report.failed);
    EXPECT_NE(report.toJson().find("\"failed\": false"),
              std::string::npos);
}

TEST(ChaosSoak, ForcedFailureShrinksToMinimalRepro)
{
    // Sabotage every trial via the config-level test knob: the driver
    // silently suppresses invalidations to GPU 1, so the oracle trips
    // regardless of which random fault rules the trial drew. The
    // minimizer must then strip EVERY rule and unplug event (none of
    // them is needed to reproduce) and still emit a one-line repro.
    ChaosOptions opts;
    opts.seed = 3;
    opts.maxTrials = 1;
    opts.app = "KM";
    opts.scheme = "idyll";
    opts.scale = kSmokeScale;
    opts.baseCfg = faultDomainConfig();
    opts.forceSuppressedInval = true;
    const ChaosReport report = runChaosSoak(opts);

    ASSERT_TRUE(report.failed);
    EXPECT_EQ(report.failure.outcome, ChaosOutcome::Failure);
    EXPECT_NE(report.failure.exitCode, 0);
    EXPECT_GE(report.minimizeRuns, 1u);
    EXPECT_LE(report.minimizedFaultRules.size(), 3u);
    EXPECT_TRUE(report.minimizedFaultRules.empty());
    EXPECT_TRUE(report.minimizedUnplugEvents.empty());
    EXPECT_NE(report.reproCommand.find("idyll_sim"), std::string::npos);
    EXPECT_NE(report.reproCommand.find("--seed"), std::string::npos);
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"repro\":"), std::string::npos);
    EXPECT_NE(json.find("\"minimizedFaultRules\": []"),
              std::string::npos);
}

} // namespace
} // namespace idyll
