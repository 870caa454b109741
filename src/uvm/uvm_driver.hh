/**
 * @file
 * Host-side UVM driver.
 *
 * Owns the centralized host page table, the per-GPU physical frame
 * allocators, the migration machinery (invalidations, acks, data
 * transfer), far-fault resolution with remote mapping, and the
 * directory (in-PTE access bits or the VM-Table/VM-Cache).
 *
 * Timing: incoming messages arrive through Network; fault resolution
 * and host page-table walks are serviced by a fixed pool of host
 * workers, each task costing the host walk latency plus software
 * service overhead.
 */

#ifndef IDYLL_UVM_UVM_DRIVER_HH
#define IDYLL_UVM_UVM_DRIVER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/directory.hh"
#include "core/vm_directory.hh"
#include "interconnect/network.hh"
#include "mem/addr.hh"
#include "mem/frame_alloc.hh"
#include "mem/page_table.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/flat_vpn_map.hh"
#include "sim/latency.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"
#include "uvm/interfaces.hh"
#include "uvm/worker_pool.hh"

namespace idyll
{

class TranslationOracle;

/** Driver statistics (also feeds several paper figures). */
struct DriverStats : MetricsGroup
{
    DriverStats() : MetricsGroup("driver") {}

    Counter farFaults{*this, "farFaults"};
    /// faults that hit a migrating page
    Counter blockedFaults{*this, "blockedFaults"};
    /// raise -> mapping reply sent
    AvgStat faultResolveLatency{*this, "faultResolveLatency"};
    Counter firstTouches{*this, "firstTouches"};
    Counter remoteMappings{*this, "remoteMappings"};
    Counter replications{*this, "replications"};
    Counter collapses{*this, "collapses"};

    Counter migrationRequests{*this, "migrationRequests"};
    Counter duplicateMigrationRequests{*this, "duplicateMigrationRequests"};
    Counter migrations{*this, "migrations"};
    /// request arrival -> data transfer start
    AvgStat migrationWait{*this, "migrationWait"};
    /// request arrival -> mapping installed
    AvgStat migrationTotal{*this, "migrationTotal"};

    Counter invalSent{*this, "invalSent"};
    /// target held a valid mapping
    Counter invalNecessary{*this, "invalNecessary"};
    /// target held nothing (wasted walk)
    Counter invalUnnecessary{*this, "invalUnnecessary"};
    Counter invalAcks{*this, "invalAcks"};
    /// re-sent unacked invalidations
    Counter invalRetries{*this, "invalRetries"};
    /// retry timer firings with work
    Counter invalRetryTimeouts{*this, "invalRetryTimeouts"};
    /// same (gpu, round) acked twice
    Counter duplicateAcks{*this, "duplicateAcks"};
    /// ack for a superseded round
    Counter staleAcks{*this, "staleAcks"};

    AvgStat hostWalkLatency{*this, "hostWalkLatency"};

    // --- device-loss fault domain ---------------------------------
    Counter gpusUnplugged{*this, "gpusUnplugged"};
    Counter gpusReattached{*this, "gpusReattached"};
    /// messages from a dead GPU ignored
    Counter quarantinedMessages{*this, "quarantinedMessages"};
    /// dead-target acks satisfied locally
    Counter invalSelfAcks{*this, "invalSelfAcks"};
    /// migrations torn down by an unplug
    Counter abortedMigrations{*this, "abortedMigrations"};
    /// pages recovered via host backing
    Counter rehomedPages{*this, "rehomedPages"};
    /// surviving replicas made primary
    Counter replicasPromoted{*this, "replicasPromoted"};
    /// survivor PTEs into dead memory dropped
    Counter orphanShootdowns{*this, "orphanShootdowns"};
};

/**
 * One device-loss recovery episode: opened when a GPU unplugs, closed
 * when the last page homed on it has been re-homed (endTick stays 0
 * while re-homing is still in flight).
 */
struct RecoveryWindow
{
    GpuId gpu = 0;
    Tick startTick = 0;
    Tick endTick = 0;
    std::uint64_t rehomedPages = 0;     ///< re-faulted from host backing
    std::uint64_t promotedReplicas = 0; ///< surviving replica made primary
    std::uint64_t abortedMigrations = 0;
    std::uint64_t pendingOps = 0;       ///< open re-home migrations
};

/**
 * Per-page driver state beyond the host PTE. A record is created when
 * the page first gets a read replica or an invalidation round, and is
 * never erased.
 */
struct HostPage
{
    struct Replica
    {
        GpuId gpu = 0;
        Pfn pfn = 0;
    };
    /** Read-replica frames, at most one per GPU, in ascending GPU order. */
    std::vector<Replica> replicas;
    /** Last invalidation round issued; rounds start at 1, never reset. */
    std::uint32_t invalRound = 0;

    /** @return @p gpu's replica, or nullptr if it holds none. */
    const Replica *replicaOf(GpuId gpu) const;
    /** Record @p gpu's new replica frame (it must hold none). */
    void addReplica(GpuId gpu, Pfn pfn);
    /** Remove @p gpu's replica (it must hold one); @return its frame. */
    Pfn takeReplica(GpuId gpu);
};

/** The UVM driver. */
class UvmDriver : public DriverItf
{
  public:
    UvmDriver(EventQueue &eq, const SystemConfig &cfg, Network &net,
              const AddrLayout &layout);

    /** Wire up the GPUs once they exist (System does this). */
    void attachGpus(std::vector<GpuItf *> gpus);

    /**
     * Warm-start helper: place @p vpn on @p owner with the host-side
     * mapping and directory state installed, with no simulated cost.
     * @return the device-qualified PFN backing the page.
     */
    Pfn prepopulatePage(Vpn vpn, GpuId owner);

    /** Attach the translation-coherence oracle (debug runs only). */
    void setOracle(TranslationOracle *oracle) { _oracle = oracle; }

    /** Attach the system tracer; cascades into the in-PTE directory. */
    void
    setTracer(Tracer *tracer)
    {
        _tracer = tracer;
        if (_dir)
            _dir->setTracer(tracer);
    }

    /** Attach the latency scoreboard (fault + invalidation phases). */
    void setLatency(LatencyScoreboard *latency) { _latency = latency; }

    // --- device-loss fault domain -------------------------------------
    /**
     * GPU @p gpu hot-unplugged. Runs the recovery state machine:
     * QUARANTINE (later messages naming it are dropped), DRAIN (abort
     * migrations destined for it, self-satisfy its pending acks, mark
     * in-flight transfers out of it as host-sourced), SCRUB (clear its
     * directory bits where no alive GPU aliases the slot, free its
     * replica frames), RE-HOME (promote a surviving replica or migrate
     * each page homed on it to a survivor, data from host backing
     * store over PCIe). Must be called after the network marked the
     * node unreachable and the oracle was told.
     */
    void onGpuUnplug(GpuId gpu);

    /** GPU @p gpu re-attached cold: it may fault and host pages again. */
    void onGpuReattach(GpuId gpu);

    /** True while @p gpu is unplugged. */
    bool isDead(GpuId gpu) const
    {
        return gpu < 64 && (_deadMask & (1ull << gpu));
    }

    /** Bit per GPU currently unplugged. */
    std::uint64_t deadMask() const { return _deadMask; }

    /** Every recovery episode so far (open ones have endTick == 0). */
    const std::vector<RecoveryWindow> &recoveryWindows() const
    {
        return _recoveries;
    }

    // --- DriverItf ----------------------------------------------------
    void onFarFault(FaultRecord fault) override;
    void onMigrationRequest(GpuId requester, Vpn vpn) override;
    void onInvalAck(GpuId from, Vpn vpn, std::uint32_t round,
                    bool wasValid) override;
    void onMappingRegistered(GpuId gpu, Vpn vpn) override;

    // --- introspection -------------------------------------------------
    RadixPageTable &hostPageTable() { return _hostPt; }
    const DriverStats &stats() const { return _stats; }
    const InPteDirectory *inPteDirectory() const { return _dir.get(); }
    const VmDirectory *vmDirectory() const { return _vmDir.get(); }

    /** Pages resident per GPU at end of run. */
    std::uint64_t residentPages(GpuId gpu) const;

    /** In-flight migration summary for watchdog/stall reports. */
    void dumpDiagnostics(std::ostream &os) const;

    // --- occupancy probes (interval sampler) ------------------------------
    std::size_t migrationsInFlight() const { return _migrations.size(); }
    std::size_t hostTasksQueued() const;

  private:
    struct Migration
    {
        Vpn vpn = 0;
        GpuId dest = 0;
        GpuId oldOwner = 0;
        Tick requestArrived = 0;
        std::uint32_t round = 0;           ///< invalidation round id
        std::uint64_t expectedAckMask = 0; ///< targeted GPUs
        std::uint64_t ackMask = 0;         ///< GPUs that acked
        bool hostWalkDone = false;
        bool invalsSent = false;
        bool dispatched = false; ///< round assigned, messages out
        bool transferStarted = false;
        bool collapse = false; ///< replication write-collapse
        /**
         * Unique per-op id: continuations (host walk, VM lookup, page
         * transfer) check it so a callback for an op aborted by an
         * unplug cannot act on a successor op keyed by the same VPN.
         */
        std::uint64_t opId = 0;
        std::uint32_t retryAttempts = 0; ///< inval retry backoff state
        bool recovery = false;   ///< re-homing a dead GPU's page
        bool sourceHost = false; ///< page data comes from host backing
        std::uint32_t recoveryWindow = 0; ///< index into _recoveries
        std::vector<GpuId> targets;
        std::vector<FaultRecord> blockedFaults;
    };

    /** Host page-table walk cost (fixed depth, no host PWC). */
    Cycles hostWalkCost() const;

    void serviceFault(FaultRecord fault);
    void resolveFault(FaultRecord fault);
    void deliverReplica(const FaultRecord &fault, Pfn pfn);
    void grantMapping(const FaultRecord &fault, Pfn pfn, bool writable,
                      std::uint64_t extraBytes);
    void startMigration(Vpn vpn, GpuId dest, bool collapse);
    void sendInvalidations(Migration &op);
    void dispatchInvalidations(Migration &op);
    void sendInvalidationTo(const Migration &op, GpuId g);
    void scheduleInvalRetry(Vpn vpn, std::uint32_t round);
    void maybeStartTransfer(Vpn vpn);
    void finishMigration(Vpn vpn, std::uint64_t opId);
    void replayBlocked(std::vector<FaultRecord> faults);
    /** @return @p vpn's record, or an empty one; never inserts. */
    const HostPage &hostPage(Vpn vpn) const;
    /** @return @p vpn's record, which must exist. */
    HostPage &existingPage(Vpn vpn);

    // --- device-loss recovery helpers ---------------------------------
    /** Start a host-sourced re-home migration for @p vpn. */
    void rehomePage(Vpn vpn, std::size_t windowIdx);
    /** Tear down the in-flight migration for @p vpn after an unplug. */
    void abortMigration(Vpn vpn, std::size_t windowIdx);
    /** Account one finished re-home op; closes the window at zero. */
    void closePendingOp(std::size_t windowIdx);

    EventQueue &_eq;
    SystemConfig _cfg;
    Network &_net;
    AddrLayout _layout;

    RadixPageTable _hostPt;
    std::vector<FrameAllocator> _gpuMem;
    std::vector<GpuItf *> _gpus;

    std::unique_ptr<InPteDirectory> _dir;
    std::unique_ptr<VmDirectory> _vmDir;

    WorkerPool _workers;
    /** In-flight ops; each is erased when it finishes or aborts. */
    FlatVpnMap<Migration> _migrations;
    FlatVpnMap<HostPage> _pages;

    TranslationOracle *_oracle = nullptr;
    Tracer *_tracer = nullptr;
    LatencyScoreboard *_latency = nullptr;

    // --- device-loss fault domain ---------------------------------
    std::uint64_t _deadMask = 0;
    std::vector<RecoveryWindow> _recoveries;
    /** Per-GPU index of its most recent recovery window. */
    std::vector<std::uint32_t> _latestWindow;
    Rng _backoffRng; ///< jitter for the inval retry backoff
    std::uint64_t _nextOpId = 1;

    DriverStats _stats;
};

} // namespace idyll

#endif // IDYLL_UVM_UVM_DRIVER_HH
