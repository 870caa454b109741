#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "harness/cli.hh"
#include "harness/runner.hh"
#include "harness/serve.hh"
#include "harness/sweeps.hh"
#include "harness/system.hh"
#include "mirror.hh"
#include "workloads/workload.hh"

namespace perfbench
{

using idyll::LatencyPhase;
using idyll::MultiGpuSystem;
using idyll::SimResults;
using idyll::SystemConfig;
using idyll::Workload;
using Clock = std::chrono::steady_clock;

namespace
{

/** fig11-grid: per-CU work scale of every grid cell. */
constexpr double kFig11Scale = 0.05;
/** shard32: the bench_shard_scaling shape (scale 1.0 * 4 / 32 GPUs). */
constexpr double kShard32Scale = 0.125;
constexpr std::uint32_t kShard32Gpus = 32;
constexpr std::uint32_t kShard32Shards = 4;
constexpr char kShard32App[] = "KM";
/** serve-obs: the interval sampler's epoch (--sample-every 1000). */
constexpr idyll::Cycles kServeSampleEvery = 1000;
/**
 * serve-obs: the seed the oracle's cost is measured at. The oracle
 * aborts KM runs at some seeds ("translation served after
 * invalidation"), so it is not part of the workload; its overhead is
 * taken at the preset's default seed, where it passes.
 */
constexpr std::uint64_t kOracleSeed = 42;
/** fig11-grid: the timed pass cycles through this many seeds. */
constexpr std::uint64_t kGridSeeds = 4;
/** Set-up samples taken after each timed repetition. */
constexpr int kSetupsPerRep = 3;
/** The traced pass fails below this TLB probe agreement. */
constexpr double kMinAgreeRatio = 0.999;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string
hex(std::uint64_t value)
{
    std::ostringstream os;
    os << "0x" << std::hex << value;
    return os.str();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

/**
 * Serve windows seen, windows whose span sums did not hold, and the
 * run's latency attribution: the windows merged, or the end-of-run
 * totals when the run was not windowed.
 */
struct WindowChecks
{
    std::uint64_t windows = 0;
    std::uint64_t bad = 0;
    idyll::LatencyWindow latency;
};

/** One simulation's outputs, host times and layer counters. */
struct RunStats
{
    SimResults r;
    std::uint64_t digest = 0; ///< translationStateDigest()
    double constructS = 0.0;
    double launchS = 0.0;
    double drainS = 0.0; ///< drain start to the return of finish()
    std::uint64_t events = 0;
    std::uint64_t arenaNodes = 0;
    std::uint64_t mshrRetries = 0;
    double queueWaitSum = 0.0;
    std::uint64_t queueWaitCount = 0;
    std::uint64_t netMsgs = 0;
    std::uint64_t depositsIn = 0;
    std::uint64_t oracleChecks = 0;
    std::uint64_t latencyViolations = 0;
    WindowChecks windows;
    MirrorStats mirror;
};

/** Drains a launched system; serve drives also check their windows. */
using Drive = std::function<void(MultiGpuSystem &, WindowChecks &)>;

void
drainAll(MultiGpuSystem &sys, WindowChecks &)
{
    sys.eventQueue().run();
}

/**
 * Construct, launch, drive and finish one system, timing each step. A
 * config with trace categories gets a MirrorSink (clock cost
 * @p clockNs) on its tracer.
 */
RunStats
runSystem(const SystemConfig &cfg, const Workload &workload,
          const Drive &drive, double clockNs = 0.0)
{
    RunStats s;
    // Declared before the system so it outlives the tracer using it.
    std::unique_ptr<MirrorSink> mirror;
    if (!cfg.trace.categories.empty())
        mirror = std::make_unique<MirrorSink>(cfg, clockNs);

    const auto t0 = Clock::now();
    MultiGpuSystem sys(cfg);
    const auto t1 = Clock::now();
    if (mirror)
        sys.tracer()->addSink(mirror.get());
    sys.launch(workload);
    const auto t2 = Clock::now();
    drive(sys, s.windows);
    s.r = sys.finish(workload.name());
    const auto t3 = Clock::now();
    if (s.windows.windows == 0) {
        idyll::LatencyWindow &lat = s.windows.latency;
        lat.totalCycles = {s.r.latDemandCycles, s.r.latInvalCycles};
        std::copy(s.r.latDemandPhaseCycles.begin(),
                  s.r.latDemandPhaseCycles.end(), lat.phaseCycles[0].begin());
        std::copy(s.r.latInvalPhaseCycles.begin(),
                  s.r.latInvalPhaseCycles.end(), lat.phaseCycles[1].begin());
    }

    s.constructS = std::chrono::duration<double>(t1 - t0).count();
    s.launchS = std::chrono::duration<double>(t2 - t1).count();
    s.drainS = std::chrono::duration<double>(t3 - t2).count();
    s.digest = sys.translationStateDigest();
    s.events = sys.eventQueue().executed();
    s.arenaNodes = sys.eventQueue().arenaNodes();
    for (std::uint32_t g = 0; g < sys.numGpus(); ++g) {
        idyll::Gpu &gpu = sys.gpu(g);
        s.mshrRetries += gpu.stats().mshrRetries.value();
        const idyll::AvgStat &wait = gpu.gmmu().stats().queueWait;
        s.queueWaitSum += wait.sum();
        s.queueWaitCount += wait.count();
    }
    for (std::uint32_t c = 0; c < idyll::kNumMsgClasses; ++c) {
        s.netMsgs += sys.network()
                         .classMessages(static_cast<idyll::MsgClass>(c))
                         .value();
    }
    if (const idyll::ShardScheduler *sched = sys.shardScheduler()) {
        for (std::uint32_t i = 0; i < sched->shardCount(); ++i)
            s.depositsIn += sched->shardStats(i).depositsIn.value();
    }
    if (const idyll::TranslationOracle *oracle = sys.oracle())
        s.oracleChecks = oracle->checks();
    if (const idyll::LatencyScoreboard *lat = sys.latency())
        s.latencyViolations = lat->violations();
    if (mirror)
        s.mirror = mirror->stats();
    return s;
}

/** The systems one set-up sample constructs and launches. */
using SetupList = std::vector<std::pair<SystemConfig, Workload>>;

/**
 * Host seconds to construct and launch every system of @p setups,
 * summed. Each system is dropped undrained.
 */
double
setupOnce(const SetupList &setups)
{
    double total = 0.0;
    for (const auto &[cfg, workload] : setups) {
        const auto t0 = Clock::now();
        MultiGpuSystem sys(cfg);
        sys.launch(workload);
        total += secondsSince(t0);
    }
    return total;
}

/**
 * The timed pass: call @p repetition (which runs the workload once and
 * returns its simulated accesses per host second) until @p seconds
 * have passed and at least @p minReps ran, taking kSetupsPerRep set-up
 * samples of @p setups after each repetition, spread over the run.
 * Sets sim_accesses_per_s and setup_s to the medians.
 */
void
timedLoop(Outcome &out, double seconds, std::size_t minReps,
          const std::function<double(std::size_t)> &repetition,
          const SetupList &setups)
{
    std::vector<double> throughput, setup;
    const auto start = Clock::now();
    for (std::size_t r = 0; r < minReps || secondsSince(start) < seconds;
         ++r) {
        throughput.push_back(repetition(r));
        for (int i = 0; i < kSetupsPerRep; ++i)
            setup.push_back(setupOnce(setups));
    }
    out.values.set("sim_accesses_per_s", median(std::move(throughput)));
    out.values.set("setup_s", median(std::move(setup)));
}

/** A window's exclusive phase cycles sum to its end-to-end cycles. */
bool
spanSumsHold(const idyll::LatencyWindow &w)
{
    for (std::uint32_t k = 0; k < idyll::kNumRequestKinds; ++k) {
        std::uint64_t sum = 0;
        for (std::uint64_t cycles : w.phaseCycles[k])
            sum += cycles;
        if (sum != w.totalCycles[k])
            return false;
    }
    return true;
}

/**
 * The serve harness's window loop (runServe in harness/serve.cc),
 * driven from outside so the benchmark keeps the system: warmup, one
 * bounded slice per window with a scoreboard snapshot, a hot-set storm
 * every params.stormEvery windows, then a free drain. Each snapshot's
 * span sums are checked. With the scoreboard off the slices and storms
 * are the same and nothing is checked.
 */
Drive
serveDrive(idyll::StormController &storm, const Workload &workload,
           const idyll::ServeParams &params)
{
    return [&storm, &workload, &params](MultiGpuSystem &sys,
                                        WindowChecks &checks) {
        idyll::EventQueue &eq = sys.eventQueue();
        idyll::LatencyScoreboard *scoreboard = sys.latency();
        const auto snapshot = [&] {
            if (!scoreboard)
                return;
            const idyll::LatencyWindow window =
                scoreboard->snapshotAndReset();
            ++checks.windows;
            checks.bad += spanSumsHold(window) ? 0 : 1;
            checks.latency.merge(window);
        };
        const std::uint64_t footprint = workload.params().footprintPages;
        const std::uint64_t shift = params.stormShiftPages
                                        ? params.stormShiftPages
                                        : workload.params().hotPages;
        idyll::Tick cursor =
            static_cast<idyll::Tick>(params.warmupWindows) *
            params.windowCycles;
        if (cursor > 0)
            eq.runUntil(cursor);
        snapshot();
        for (std::uint32_t w = 0;
             !eq.empty() && (params.maxWindows == 0 || w < params.maxWindows);
             ++w) {
            if (params.stormEvery > 0 && (w + 1) % params.stormEvery == 0)
                storm.shift(shift, footprint);
            cursor += params.windowCycles;
            eq.runUntil(cursor);
            snapshot();
        }
        if (!eq.empty()) {
            eq.run();
            snapshot();
        }
    };
}

/** Layer counters summed over the systems of one pass. */
struct Totals
{
    double constructS = 0.0;
    double launchS = 0.0;
    double drainS = 0.0;
    std::uint64_t accesses = 0;
    std::uint64_t events = 0;
    std::uint64_t arenaNodes = 0; ///< the largest system's
    std::uint64_t l1Hits = 0, l1Misses = 0, l2Hits = 0, l2Misses = 0;
    std::uint64_t demandWalks = 0, invalWalks = 0, updateWalks = 0;
    std::uint64_t queueFullStalls = 0;
    double queueWaitSum = 0.0;
    std::uint64_t queueWaitCount = 0;
    std::uint64_t pwcHits = 0, pwcMisses = 0;
    std::uint64_t irmbInserts = 0, irmbElided = 0;
    std::uint64_t mshrRetries = 0;
    std::uint64_t remoteAccesses = 0;
    double demandMissCycles = 0.0;
    std::uint64_t demandMisses = 0;
    std::uint64_t netMsgs = 0, netBytes = 0;
    std::uint64_t farFaults = 0, migrations = 0;
    double migrationWait = 0.0;
    std::uint64_t invalSent = 0, invalUnnecessary = 0;
    std::uint64_t depositsIn = 0;
    /** Latency attribution, [RequestKind] and [RequestKind][phase]. */
    std::array<std::uint64_t, idyll::kNumRequestKinds> latCycles{};
    std::array<std::array<std::uint64_t, idyll::kNumLatencyPhases>,
               idyll::kNumRequestKinds>
        latPhase{};
    MirrorStats mirror;

    void
    add(const RunStats &s)
    {
        const SimResults &r = s.r;
        constructS += s.constructS;
        launchS += s.launchS;
        drainS += s.drainS;
        accesses += r.accesses;
        events += s.events;
        arenaNodes = std::max(arenaNodes, s.arenaNodes);
        l1Hits += r.l1Hits;
        l1Misses += r.l1Misses;
        l2Hits += r.l2Hits;
        l2Misses += r.l2Misses;
        demandWalks += r.demandWalks;
        invalWalks += r.invalWalks;
        updateWalks += r.updateWalks;
        queueFullStalls += r.walkQueueFullStalls;
        queueWaitSum += s.queueWaitSum;
        queueWaitCount += s.queueWaitCount;
        pwcHits += r.pwcHits;
        pwcMisses += r.pwcMisses;
        irmbInserts += r.irmbInserts;
        irmbElided += r.irmbElided;
        mshrRetries += s.mshrRetries;
        remoteAccesses += r.remoteAccesses;
        demandMissCycles += r.demandMissLatencyTotal;
        demandMisses += r.demandTlbMisses;
        netMsgs += s.netMsgs;
        netBytes += r.networkBytes;
        farFaults += r.farFaults;
        migrations += r.migrations;
        migrationWait += r.migrationWaitTotal;
        invalSent += r.invalSent;
        invalUnnecessary += r.invalUnnecessary;
        depositsIn += s.depositsIn;
        const idyll::LatencyWindow &lat = s.windows.latency;
        for (std::uint32_t k = 0; k < idyll::kNumRequestKinds; ++k) {
            latCycles[k] += lat.totalCycles[k];
            for (std::uint32_t p = 0; p < idyll::kNumLatencyPhases; ++p)
                latPhase[k][p] += lat.phaseCycles[k][p];
        }
        mirror += s.mirror;
    }

    double
    accessesPerSecond() const
    {
        return ratio(static_cast<double>(accesses), drainS);
    }

};

/** Per-layer inputs that are not sums over one pass. */
struct LayerExtras
{
    double shardImbalancePct = 0.0;
    double shardStallPct = 0.0;
    double shardSpeedup = 1.0; ///< serial host s / sharded host s
    double latencyOverheadPct = 0.0;
    double samplerOverheadPct = 0.0;
    double integrityOverheadPct = 0.0;
    double genNsPerAccess = 0.0;
};

double
overheadPct(double withFlag, double without)
{
    return 100.0 * ratio(withFlag - without, without);
}

double
share(std::uint64_t part, std::uint64_t whole)
{
    return ratio(static_cast<double>(part), static_cast<double>(whole));
}

/**
 * Every per-layer metric.
 * @param timed  the untraced pass in the mode users run it.
 * @param base   the untraced pass in the traced pass's (serial) mode;
 *               host shares and the trace overhead are relative to
 *               its drain time.
 * @param traced the traced pass: mirror timings and latency phases.
 */
void
layerValues(Values &v, const Totals &timed, const Totals &base,
            const Totals &traced, const LayerExtras &x)
{
    const auto acc = static_cast<double>(timed.accesses);
    const MirrorStats &m = traced.mirror;
    const double baseNs = base.drainS * 1e9;
    const auto phase = [&](idyll::RequestKind kind, LatencyPhase p) {
        const auto k = static_cast<std::size_t>(kind);
        return share(traced.latPhase[k][static_cast<std::size_t>(p)],
                     traced.latCycles[k]);
    };
    const auto demand = idyll::RequestKind::Demand;
    const double tlbShare = ratio(m.tlbNs(), baseNs);
    const double irmbShare = ratio(m.irmb.ns, baseNs);
    const double dirShare = ratio(m.dir.ns, baseNs);
    const double netShare = ratio(m.netSend.ns, baseNs);

    v.set("sim.ns_per_event", ratio(timed.drainS * 1e9,
                                    static_cast<double>(timed.events)));
    v.set("sim.events_per_access",
          ratio(static_cast<double>(timed.events), acc));
    v.set("sim.arena_nodes", static_cast<double>(timed.arenaNodes));
    v.set("sim.unattributed_share",
          1.0 - (tlbShare + irmbShare + dirShare + netShare));

    v.set("tlb.l1_hit_ratio", share(timed.l1Hits,
                                    timed.l1Hits + timed.l1Misses));
    v.set("tlb.l2_hit_ratio", share(timed.l2Hits,
                                    timed.l2Hits + timed.l2Misses));
    v.set("tlb.probe_ns", m.tlbProbe.nsPerCall());
    v.set("tlb.fill_ns", m.tlbFill.nsPerCall());
    v.set("tlb.shootdowns_per_kaccess",
          perKilo(static_cast<double>(m.tlbShootdown.calls),
                  static_cast<double>(traced.accesses)));
    v.set("tlb.shootdown_ns", m.tlbShootdown.nsPerCall());
    v.set("tlb.shootdown_useful_ratio",
          share(m.shootdownsUseful, m.tlbShootdown.calls));
    v.set("tlb.host_share", tlbShare);
    v.set("tlb.mirror_agree_ratio", m.agreeRatio());

    const std::uint64_t walks =
        timed.demandWalks + timed.invalWalks + timed.updateWalks;
    v.set("gmmu.walks_per_kaccess",
          perKilo(static_cast<double>(walks), acc));
    v.set("gmmu.inval_walk_share",
          share(timed.invalWalks, timed.demandWalks + timed.invalWalks));
    v.set("gmmu.queue_wait_cycles",
          ratio(timed.queueWaitSum,
                static_cast<double>(timed.queueWaitCount)));
    v.set("gmmu.queue_full_stalls",
          static_cast<double>(timed.queueFullStalls));
    v.set("gmmu.mmu_cache_hit_ratio",
          share(timed.pwcHits, timed.pwcHits + timed.pwcMisses));

    v.set("core.irmb.inserts_per_kaccess",
          perKilo(static_cast<double>(timed.irmbInserts), acc));
    v.set("core.irmb.elide_ratio",
          share(timed.irmbElided, timed.irmbInserts));
    v.set("core.irmb.batch_size",
          share(m.irmbBatchVpns, m.irmbBatches));
    v.set("core.irmb.op_ns", m.irmb.nsPerCall());
    v.set("core.irmb.host_share", irmbShare);

    v.set("core.dir.targets_per_inval",
          share(m.dirTargets, m.dirTargetLookups));
    v.set("core.dir.op_ns", m.dir.nsPerCall());

    v.set("core.shard.imbalance_pct", x.shardImbalancePct);
    v.set("core.shard.stall_pct", x.shardStallPct);
    v.set("core.shard.deposits_per_kevent",
          perKilo(static_cast<double>(timed.depositsIn),
                  static_cast<double>(timed.events)));
    v.set("core.shard.speedup", x.shardSpeedup);

    v.set("cache.mshr_retries_per_kaccess",
          perKilo(static_cast<double>(timed.mshrRetries), acc));

    v.set("gpu.remote_ratio",
          ratio(static_cast<double>(timed.remoteAccesses), acc));
    v.set("gpu.demand_miss_cycles",
          ratio(timed.demandMissCycles,
                static_cast<double>(timed.demandMisses)));

    v.set("interconnect.msgs_per_kaccess",
          perKilo(static_cast<double>(timed.netMsgs), acc));
    v.set("interconnect.bytes_per_access",
          ratio(static_cast<double>(timed.netBytes), acc));
    v.set("interconnect.send_ns", m.netSend.nsPerCall());

    v.set("uvm.far_faults_per_kaccess",
          perKilo(static_cast<double>(timed.farFaults), acc));
    v.set("uvm.migrations_per_kaccess",
          perKilo(static_cast<double>(timed.migrations), acc));
    v.set("uvm.migration_wait_cycles",
          ratio(timed.migrationWait,
                static_cast<double>(timed.migrations)));
    v.set("uvm.inval_unnecessary_ratio",
          share(timed.invalUnnecessary, timed.invalSent));

    v.set("workloads.gen_ns_per_access", x.genNsPerAccess);
    v.set("harness.construct_s", timed.constructS);
    v.set("harness.launch_s", timed.launchS);

    v.set("sim.latency.overhead_pct", x.latencyOverheadPct);
    v.set("sim.sampler.overhead_pct", x.samplerOverheadPct);
    v.set("sim.integrity.overhead_pct", x.integrityOverheadPct);
    v.set("sim.trace.overhead_pct", overheadPct(traced.drainS, base.drainS));
    v.set("sim.latency.ptw_queue_share",
          phase(demand, LatencyPhase::PtwQueue));
    v.set("sim.latency.far_fault_share",
          phase(demand, LatencyPhase::FarFault));
    // Shootdown stalls are spent by invalidation rounds, not demands.
    v.set("sim.latency.shootdown_stall_share",
          phase(idyll::RequestKind::Invalidation,
                LatencyPhase::ShootdownStall));
    v.set("sim.latency.migration_wait_share",
          phase(demand, LatencyPhase::MigrationWait));
    v.set("sim.latency.network_share", phase(demand, LatencyPhase::Network));
}

/**
 * The traced pass's honesty checks: the shadow TLBs must agree with
 * the traced probe outcomes, and the mirrored shares must not add up
 * to more than the whole drain.
 */
void
checkTracedPass(Outcome &out)
{
    const double agree = out.values.get("tlb.mirror_agree_ratio");
    if (agree < kMinAgreeRatio) {
        out.correct = false;
        out.notes.push_back("tlb.mirror_agree_ratio " +
                            jsonNumber(agree) + " below 0.999");
    }
    const double unattributed = out.values.get("sim.unattributed_share");
    if (unattributed < 0.0) {
        out.correct = false;
        out.notes.push_back("sim.unattributed_share " +
                            jsonNumber(unattributed) + " is negative");
    }
}

/** Build every stream of @p workload and draw every access from it. */
struct GenTime
{
    double ns = 0.0;
    std::uint64_t accesses = 0;

    void
    add(const Workload &workload, const SystemConfig &cfg)
    {
        const idyll::AddrLayout layout(cfg.pageBits);
        const auto t0 = Clock::now();
        for (idyll::GpuId g = 0; g < cfg.numGpus; ++g) {
            for (auto &stream : workload.buildStreams(g, cfg, layout))
                while (stream->next())
                    ++accesses;
        }
        ns += std::chrono::duration<double, std::nano>(Clock::now() - t0)
                  .count();
    }

    double nsPerAccess() const
    {
        return ratio(ns, static_cast<double>(accesses));
    }
};

SystemConfig
schemeConfig(const std::string &scheme, std::uint64_t seed)
{
    auto preset = idyll::schemeByName(scheme);
    if (!preset)
        throw std::invalid_argument("unknown scheme " + scheme);
    SystemConfig cfg = idyll::scaledForSim(*preset);
    cfg.seed = seed;
    return cfg;
}

/** The traced pass's config: every trace category plus the scoreboard. */
SystemConfig
tracedConfig(SystemConfig cfg)
{
    cfg.trace.categories = "all";
    cfg.latency.enabled = true;
    cfg.shards = 1; // the mirror sink is serial-only
    return cfg;
}

/** Gain of @p run over @p base, percent. */
double
gainPct(const SimResults &run, const SimResults &base)
{
    return 100.0 * (run.speedupOver(base) - 1.0);
}

void
recordDigest(Outcome &out, const std::string &label, const RunStats &s)
{
    std::string line = "digest " + label + " state=" + hex(s.digest);
    if (!s.r.traceDigest.empty())
        line += " trace=" + s.r.traceDigest;
    out.records.push_back(line);
}

// ---------------------------------------------------------------------
// fig11-grid: the registered fig11 sweep, serial, observability off.
// ---------------------------------------------------------------------

struct Cell
{
    std::string app;
    std::string scheme;
    SystemConfig cfg;

    std::string label() const { return app + "/" + scheme; }
};

std::vector<Cell>
fig11Cells(std::uint64_t seed)
{
    const auto spec = idyll::sweepByName("fig11");
    if (!spec)
        throw std::runtime_error("no fig11 sweep registered");
    std::vector<Cell> cells;
    for (const std::string &app : spec->apps)
        for (const std::string &scheme : spec->schemes)
            cells.push_back({app, scheme, schemeConfig(scheme, seed)});
    return cells;
}

/** What a grid cell must reproduce on every repetition. */
struct CellResult
{
    std::uint64_t digest = 0;
    idyll::Tick execTicks = 0;
    std::uint64_t accesses = 0;

    bool operator==(const CellResult &) const = default;
};

/**
 * Check one grid repetition: every cell ran, each app's accesses are
 * the same under every scheme, and (after the first) every cell
 * repeats the first repetition exactly.
 */
void
checkGrid(Outcome &out, const std::vector<Cell> &cells,
          const std::vector<CellResult> &rep,
          const std::vector<CellResult> &first)
{
    std::map<std::string, std::uint64_t> appAccesses;
    for (std::size_t i = 0; i < cells.size(); ++i)
        appAccesses.emplace(cells[i].app, rep[i].accesses);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const bool ok = rep[i].execTicks > 0 && rep[i].accesses > 0 &&
                        rep[i].accesses == appAccesses[cells[i].app] &&
                        (first.empty() || rep[i] == first[i]);
        out.count(ok, "fig11 cell " + cells[i].label());
    }
}

/**
 * paper_gap_pp over several grids: each scheme's gain is the mean of
 * its speedups over every (app, grid), each against the same grid's
 * baseline cell.
 */
double
fig11PaperGap(const std::vector<std::vector<Cell>> &grids,
              const std::vector<std::vector<CellResult>> &results)
{
    std::map<std::string, std::vector<double>> speedups;
    for (std::size_t g = 0; g < grids.size(); ++g) {
        const std::vector<Cell> &cells = grids[g];
        std::map<std::string, idyll::Tick> baseTicks;
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (cells[i].scheme == "baseline")
                baseTicks[cells[i].app] = results[g][i].execTicks;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            speedups[cells[i].scheme].push_back(
                ratio(static_cast<double>(baseTicks[cells[i].app]),
                      static_cast<double>(results[g][i].execTicks)));
        }
    }
    std::map<std::string, double> gains;
    for (const auto &[scheme, s] : speedups)
        gains[scheme] = averageGainPct(s);
    return paperGapPp(gains);
}

/**
 * Repetition r runs the grid at seed opts.seed * kGridSeeds +
 * r % kGridSeeds, so the medians and the paper gap do not rest on one
 * draw of the synthetic streams; a repetition that comes back to a
 * seed must repeat its first run exactly.
 */
Outcome
fig11Timed(const RunOptions &opts)
{
    Outcome out;
    std::vector<std::vector<Cell>> grids;
    for (std::uint64_t i = 0; i < kGridSeeds; ++i)
        grids.push_back(fig11Cells(opts.seed * kGridSeeds + i));
    std::vector<std::vector<CellResult>> first(kGridSeeds);
    SetupList setups;
    for (const Cell &cell : grids.front())
        setups.emplace_back(cell.cfg,
                            Workload::byName(cell.app, kFig11Scale));

    timedLoop(out, opts.seconds, kGridSeeds, [&](std::size_t r) {
        const std::vector<Cell> &cells = grids[r % kGridSeeds];
        std::vector<CellResult> &seen = first[r % kGridSeeds];
        Totals t;
        std::vector<CellResult> rep;
        for (const Cell &cell : cells) {
            const RunStats s = runSystem(
                cell.cfg, Workload::byName(cell.app, kFig11Scale),
                drainAll);
            t.add(s);
            rep.push_back({s.digest, s.r.execTicks, s.r.accesses});
            if (seen.empty())
                recordDigest(out, cell.label(), s);
        }
        checkGrid(out, cells, rep, seen);
        if (seen.empty())
            seen = rep;
        return t.accessesPerSecond();
    }, setups);

    out.values.set("peak_rss_mb", peakRssMb());
    out.values.set("paper_gap_pp", fig11PaperGap(grids, first));
    return out;
}

Outcome
fig11Traced(const RunOptions &opts)
{
    Outcome out;
    const double clockNs = clockReadNs();
    // The first seed of the timed pass's cycle.
    const std::vector<Cell> cells = fig11Cells(opts.seed * kGridSeeds);
    Totals plain, traced;
    GenTime gen;
    for (const Cell &cell : cells) {
        const Workload workload = Workload::byName(cell.app, kFig11Scale);
        const RunStats a = runSystem(cell.cfg, workload, drainAll);
        const RunStats b = runSystem(tracedConfig(cell.cfg), workload,
                                     drainAll, clockNs);
        out.count(a.digest == b.digest && a.r.execTicks == b.r.execTicks,
                  "fig11 cell " + cell.label() +
                      " traced digest differs from untraced");
        recordDigest(out, cell.label(), b);
        plain.add(a);
        traced.add(b);
        if (cell.scheme == "idyll")
            gen.add(workload, cell.cfg);
    }
    LayerExtras x;
    x.genNsPerAccess = gen.nsPerAccess();
    layerValues(out.values, plain, plain, traced, x);
    checkTracedPass(out);
    return out;
}

// ---------------------------------------------------------------------
// serve-obs: the serve:steady preset with the scoreboard and the
// sampler (every 1000 cycles) on.
// ---------------------------------------------------------------------

idyll::ServeSpec
steadySpec()
{
    auto spec = idyll::serveSpecByName("steady");
    if (!spec)
        throw std::runtime_error("no serve:steady preset registered");
    return *spec;
}

SystemConfig
serveConfig(const idyll::ServeSpec &spec, const std::string &scheme,
            std::uint64_t seed)
{
    SystemConfig cfg = schemeConfig(scheme, seed);
    cfg.numGpus = spec.gpus;
    cfg.latency.enabled = true; // runServe forces it on too
    cfg.sampler.everyCycles = kServeSampleEvery;
    return cfg;
}

/** One serve run (fresh workload and storm schedule). */
RunStats
runServeOnce(const idyll::ServeSpec &spec, const SystemConfig &cfg,
             double clockNs = 0.0)
{
    Workload workload = Workload::byName(spec.app, spec.scale);
    idyll::StormController storm;
    workload.setStorm(&storm);
    return runSystem(cfg, workload,
                     serveDrive(storm, workload, spec.params), clockNs);
}

/**
 * Check one serve run: every window's span sums held (each window is
 * one operation), the scoreboard saw no violation, and the run
 * repeats @p first.
 */
void
checkServe(Outcome &out, const RunStats &s, const RunStats *first)
{
    out.attempted += s.windows.windows;
    out.failed += s.windows.bad;
    if (s.windows.bad)
        out.notes.push_back("serve: " + std::to_string(s.windows.bad) +
                            " window(s) broke the span-sum check");
    const bool repeats = !first || (s.digest == first->digest &&
                                    s.r.execTicks == first->r.execTicks);
    out.count(repeats && s.latencyViolations == 0 && s.r.accesses > 0,
              "serve run: scoreboard violation or digest mismatch");
}

Outcome
serveTimed(const RunOptions &opts)
{
    Outcome out;
    const idyll::ServeSpec spec = steadySpec();
    const SystemConfig cfg = serveConfig(spec, spec.scheme, opts.seed);
    std::unique_ptr<RunStats> first;
    timedLoop(out, opts.seconds, 1, [&](std::size_t) {
        RunStats s = runServeOnce(spec, cfg);
        checkServe(out, s, first.get());
        const double rate =
            ratio(static_cast<double>(s.r.accesses), s.drainS);
        if (!first) {
            recordDigest(out, "serve/" + spec.scheme, s);
            first = std::make_unique<RunStats>(std::move(s));
        }
        return rate;
    }, {{cfg, Workload::byName(spec.app, spec.scale)}});

    // The same storm schedule under baseline, untimed, for the gap.
    SystemConfig baseCfg = schemeConfig("baseline", opts.seed);
    baseCfg.numGpus = spec.gpus;
    const RunStats base = runServeOnce(spec, baseCfg);
    out.count(base.r.accesses == first->r.accesses,
              "serve baseline accesses differ from idyll");

    out.values.set("peak_rss_mb", peakRssMb());
    out.values.set("paper_gap_pp",
                   std::fabs(gainPct(first->r, base.r) - kPaperIdyllGainPct));
    return out;
}

Outcome
serveTraced(const RunOptions &opts)
{
    Outcome out;
    const double clockNs = clockReadNs();
    const idyll::ServeSpec spec = steadySpec();
    const SystemConfig cfg = serveConfig(spec, spec.scheme, opts.seed);

    const RunStats timed = runServeOnce(spec, cfg);
    checkServe(out, timed, nullptr);
    // Each observability flag's cost: the same run with only it off.
    const auto without = [&](auto &&strip) {
        SystemConfig c = cfg;
        strip(c);
        const RunStats s = runServeOnce(spec, c);
        out.count(s.digest == timed.digest,
                  "serve run with a flag off changed the digest");
        return s.drainS;
    };
    LayerExtras x;
    x.latencyOverheadPct = overheadPct(
        timed.drainS, without([](SystemConfig &c) {
            c.latency.enabled = false;
        }));
    x.samplerOverheadPct = overheadPct(
        timed.drainS, without([](SystemConfig &c) {
            c.sampler.everyCycles = 0;
        }));
    SystemConfig oracleCfg = serveConfig(spec, spec.scheme, kOracleSeed);
    const RunStats noOracle = runServeOnce(spec, oracleCfg);
    oracleCfg.integrity.oracle = true;
    const RunStats oracle = runServeOnce(spec, oracleCfg);
    out.count(oracle.digest == noOracle.digest && oracle.oracleChecks > 0,
              "serve run with the oracle changed the digest");
    x.integrityOverheadPct = overheadPct(oracle.drainS, noOracle.drainS);

    const RunStats traced = runServeOnce(spec, tracedConfig(cfg), clockNs);
    checkServe(out, traced, &timed);
    recordDigest(out, "serve/" + spec.scheme, traced);

    GenTime gen;
    gen.add(Workload::byName(spec.app, spec.scale), cfg);
    x.genNsPerAccess = gen.nsPerAccess();

    Totals plain, tracedTotals;
    plain.add(timed);
    tracedTotals.add(traced);
    layerValues(out.values, plain, plain, tracedTotals, x);
    checkTracedPass(out);
    return out;
}

// ---------------------------------------------------------------------
// shard32: KM under IDYLL on 32 GPUs, 4 event-core shards.
// ---------------------------------------------------------------------

SystemConfig
shardConfig(const std::string &scheme, std::uint64_t seed)
{
    SystemConfig cfg = schemeConfig(scheme, seed);
    cfg.numGpus = kShard32Gpus;
    cfg.shards = kShard32Shards;
    cfg.hostStats = true; // shard telemetry rides this gate
    return cfg;
}

SystemConfig
serial(SystemConfig cfg)
{
    cfg.shards = 1;
    return cfg;
}

RunStats
runShard32(const SystemConfig &cfg, double clockNs = 0.0)
{
    return runSystem(cfg, Workload::byName(kShard32App, kShard32Scale),
                     drainAll, clockNs);
}

bool
sameResult(const RunStats &a, const RunStats &b)
{
    return a.digest == b.digest && a.r.execTicks == b.r.execTicks &&
           a.r.accesses == b.r.accesses;
}

/**
 * The 4-shard run is made once, untimed, and every timed serial
 * repetition must reproduce its digest. The repetitions are serial
 * because the shard threads need every core of a 4-core host: on a
 * shared one, other tenants stall their rendezvous and the sharded
 * rate swings by a factor of two or more from run to run. The shard
 * layer itself is measured by the traced pass (core.shard.*).
 */
Outcome
shardTimed(const RunOptions &opts)
{
    Outcome out;
    const SystemConfig cfg = shardConfig("idyll", opts.seed);
    const SystemConfig serialCfg = serial(cfg);
    const RunStats sharded = runShard32(cfg);
    recordDigest(out, "shard32/sharded", sharded);
    timedLoop(out, opts.seconds, 1, [&](std::size_t) {
        const RunStats s = runShard32(serialCfg);
        out.count(sameResult(s, sharded),
                  "shard32: sharded digest differs from serial");
        return ratio(static_cast<double>(s.r.accesses), s.drainS);
    }, {{serialCfg, Workload::byName(kShard32App, kShard32Scale)}});

    const RunStats base = runShard32(shardConfig("baseline", opts.seed));
    out.values.set("peak_rss_mb", peakRssMb());
    out.values.set("paper_gap_pp", std::fabs(gainPct(sharded.r, base.r) -
                                             kPaperIdyllGainPct));
    return out;
}

Outcome
shardTraced(const RunOptions &opts)
{
    Outcome out;
    const double clockNs = clockReadNs();
    const SystemConfig cfg = shardConfig("idyll", opts.seed);
    const RunStats sharded = runShard32(cfg);
    const RunStats ref = runShard32(serial(cfg));
    const RunStats traced = runShard32(tracedConfig(cfg), clockNs);
    out.count(sameResult(sharded, ref),
              "shard32: sharded digest differs from serial");
    out.count(sameResult(traced, ref),
              "shard32: traced digest differs from serial");
    recordDigest(out, "shard32/traced", traced);

    LayerExtras x;
    x.shardImbalancePct = sharded.r.shardImbalancePct;
    x.shardStallPct = sharded.r.lookaheadStallPct;
    x.shardSpeedup = ratio(ref.drainS, sharded.drainS);
    GenTime gen;
    gen.add(Workload::byName(kShard32App, kShard32Scale), cfg);
    x.genNsPerAccess = gen.nsPerAccess();

    Totals timed, base, tracedTotals;
    timed.add(sharded);
    base.add(ref);
    tracedTotals.add(traced);
    layerValues(out.values, timed, base, tracedTotals, x);
    checkTracedPass(out);
    return out;
}

} // namespace

void
Outcome::count(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        notes.push_back(what);
    }
}

Outcome
runWorkload(const RunOptions &opts)
{
    if (opts.workload == "fig11-grid")
        return opts.trace ? fig11Traced(opts) : fig11Timed(opts);
    if (opts.workload == "serve-obs")
        return opts.trace ? serveTraced(opts) : serveTimed(opts);
    if (opts.workload == "shard32")
        return opts.trace ? shardTraced(opts) : shardTimed(opts);
    throw std::invalid_argument("unknown workload " + opts.workload);
}

MirrorStats
mirrorRun(const std::string &app, double scale, std::uint64_t seed)
{
    const SystemConfig cfg = tracedConfig(schemeConfig("idyll", seed));
    return runSystem(cfg, Workload::byName(app, scale), drainAll,
                     clockReadNs())
        .mirror;
}

} // namespace perfbench
