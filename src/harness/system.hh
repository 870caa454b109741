/**
 * @file
 * The top-level facade: builds a complete multi-GPU system from a
 * SystemConfig, runs a workload on it, and collects SimResults.
 *
 * This is the library's primary public entry point:
 *
 * @code
 *   SystemConfig cfg = SystemConfig::idyllFull();
 *   MultiGpuSystem system(cfg);
 *   SimResults r = system.run(Workload::byName("PR"));
 * @endcode
 *
 * A MultiGpuSystem is single-shot: construct a fresh one per run so
 * page tables, TLBs, and counters start cold.
 */

#ifndef IDYLL_HARNESS_SYSTEM_HH
#define IDYLL_HARNESS_SYSTEM_HH

#include <chrono>
#include <memory>
#include <vector>

#include "core/shard_sched.hh"
#include "gpu/gpu.hh"
#include "harness/results.hh"
#include "interconnect/network.hh"
#include "mem/addr.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/fault_domain.hh"
#include "sim/integrity.hh"
#include "sim/latency.hh"
#include "sim/metrics.hh"
#include "sim/sampler.hh"
#include "sim/trace.hh"
#include "uvm/uvm_driver.hh"
#include "workloads/workload.hh"

namespace idyll
{

/** A complete simulated multi-GPU node. */
class MultiGpuSystem
{
  public:
    explicit MultiGpuSystem(SystemConfig cfg);

    /** Run @p workload to completion and aggregate the results. */
    SimResults run(const Workload &workload);

    // --- windowed drive (harness/serve.hh) ---------------------------
    /**
     * First half of run(): prepopulate residency, launch the per-CU
     * streams, and start the interval sampler — but do NOT drain the
     * event queue. The caller then drives eventQueue().runUntil() in
     * bounded slices (the serve harness does one slice per
     * measurement window) and calls finish() once the queue is empty.
     */
    void launch(const Workload &workload);

    /**
     * Second half of run(): end-of-run assertions (all CUs retired,
     * oracle/TLB verification), sampler finalization, tracer flush,
     * and result aggregation. Call exactly once, after launch() and a
     * full drain.
     */
    SimResults finish(const std::string &app);

    /**
     * Record the wall-clock seconds the caller spent draining the
     * event queue, so windowed drives report hostSeconds/eventsPerSec
     * the same way run() does. Only meaningful with cfg.hostStats.
     */
    void recordHostSeconds(double seconds) { _hostSeconds = seconds; }

    // --- component access (tests, custom experiments) --------------------
    EventQueue &eventQueue() { return _eq; }
    Network &network() { return _net; }
    UvmDriver &driver() { return _driver; }
    Gpu &gpu(std::uint32_t i) { return *_gpus.at(i); }
    std::uint32_t numGpus() const
    {
        return static_cast<std::uint32_t>(_gpus.size());
    }
    const AddrLayout &layout() const { return _layout; }
    const SystemConfig &config() const { return _cfg; }

    /** Aggregate results without running (used by custom drivers). */
    SimResults collectResults(const std::string &app) const;

    /**
     * Dump every component statistic as "path value" lines (gem5
     * stats-file style), then the shard scheduler's "shards" group on
     * sharded runs. Valid any time; most useful after run().
     */
    void dumpStats(std::ostream &os) const;

    /** The tracer, if cfg.trace.categories is nonempty (else nullptr). */
    Tracer *tracer() { return _tracer.get(); }

    /** The trace digest accumulated so far (nullptr if not tracing). */
    const TraceDigestSink *traceDigest() const { return _digestSink.get(); }

    /** The oracle, if integrity.oracle is set (else nullptr). */
    const TranslationOracle *oracle() const { return _oracle.get(); }

    /** The fault injector, if a fault plan is set (else nullptr). */
    const FaultInjector *faultInjector() const { return _injector.get(); }

    /** The unplug scheduler, if an unplug plan is set (else nullptr). */
    const FaultDomainController *faultDomain() const
    {
        return _faultDomain.get();
    }

    /** The latency scoreboard, if cfg.latency.enabled (else nullptr). */
    LatencyScoreboard *latency() { return _latency.get(); }
    const LatencyScoreboard *latency() const { return _latency.get(); }

    /** The interval sampler, if cfg.sampler.everyCycles > 0. */
    const IntervalSampler *sampler() const { return _sampler.get(); }

    /**
     * Event-core shards actually running (1 = serial). May be lower
     * than cfg.shards: the request is clamped to numGpus + 1, and runs
     * whose features need a single serial queue (oracle, unplug plans,
     * inval-suppression sabotage, Trans-FW) fall back to 1 with one
     * warning naming every reason. The observability stack (latency
     * scoreboard, interval sampler, JSONL trace) shards natively and
     * never serializes a run.
     */
    std::uint32_t effectiveShards() const
    {
        return _sharder ? _sharder->shardCount() : 1;
    }

    /** The shard scheduler, when effectiveShards() > 1 (else nullptr). */
    const ShardScheduler *shardScheduler() const { return _sharder.get(); }

    /**
     * Order-independent digest of the final host page table: the same
     * set of (vpn, pfn, writable) mappings yields the same value. Used
     * to compare faulted against fault-free runs.
     */
    std::uint64_t translationStateDigest() const;

    /** Occupancy + protocol trace dump used by the watchdog. */
    void dumpStallDiagnostics(std::ostream &os) const;

  private:
    /**
     * Oracle-mode end-of-run check: every TLB-resident translation
     * must agree with a valid local PTE (no stale entries survive).
     */
    void verifyFinalTlbState() const;

    // --- device-loss orchestration ----------------------------------
    /**
     * Hot-unplug @p gpu: network fail-fast, device teardown, latency
     * token aborts, oracle shadow wipe, driver recovery, then the
     * leaked-entry audit. Fired by the FaultDomainController.
     */
    void handleUnplug(GpuId gpu);

    /** Re-attach @p gpu cold after an unplug. */
    void handleReattach(GpuId gpu);

    /**
     * Post-quarantine invariant: the dead device retains no local
     * PTEs, TLB entries, or IRMB state that could serve a stale
     * translation if it were (incorrectly) consulted.
     */
    void auditQuarantine(GpuId gpu) const;

    /**
     * --progress status line (stderr): current tick, events executed,
     * dispatch rate, and shard window/stall counts. Fired from the
     * event-queue progress hook (serial) or a rendezvous hook
     * (sharded); wall-clock throttled to cfg.progressSecs.
     */
    void emitProgress();

    SystemConfig _cfg;
    AddrLayout _layout;
    EventQueue _eq;
    /**
     * Shard scheduler; non-null iff the run executes sharded. Declared
     * right after _eq (it references the root queue) and before every
     * component so the router is installed before any of them schedule.
     */
    std::unique_ptr<ShardScheduler> _sharder;
    Network _net;
    UvmDriver _driver;
    std::vector<std::unique_ptr<Gpu>> _gpus;
    /** Root of the metrics tree: the driver's and each GPU's group. */
    MetricsGroup _metrics{"system"};
    std::unique_ptr<TranslationOracle> _oracle;
    std::unique_ptr<FaultInjector> _injector;
    std::unique_ptr<FaultDomainController> _faultDomain;
    std::unique_ptr<TraceDigestSink> _digestSink;
    std::unique_ptr<JsonlTraceSink> _jsonlSink;
    std::unique_ptr<Tracer> _tracer;
    std::unique_ptr<LatencyScoreboard> _latency;
    std::unique_ptr<IntervalSampler> _sampler;
    bool _ran = false;
    bool _finished = false;
    /** Wall-clock seconds of the _eq.run() drain (cfg.hostStats). */
    double _hostSeconds = 0.0;
    // --- --progress throttling (cfg.progressSecs > 0) ----------------
    std::chrono::steady_clock::time_point _progressEpoch{};
    std::chrono::steady_clock::time_point _nextProgress{};
    std::uint64_t _lastProgressExecuted = 0;
};

/** Human-readable scheme name for a configuration. */
std::string schemeName(const SystemConfig &cfg);

} // namespace idyll

#endif // IDYLL_HARNESS_SYSTEM_HH
