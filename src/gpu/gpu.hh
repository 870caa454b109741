/**
 * @file
 * The GPU device: CUs, TLB hierarchy, GMMU, fault path, remote access
 * path, per-page access counters, and — when enabled — the IRMB and
 * the Trans-FW PRT.
 */

#ifndef IDYLL_GPU_GPU_HH
#define IDYLL_GPU_GPU_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "cache/mshr.hh"
#include "core/irmb.hh"
#include "core/transfw.hh"
#include "gmmu/gmmu.hh"
#include "gpu/compute_unit.hh"
#include "gpu/stream.hh"
#include "interconnect/network.hh"
#include "mem/addr.hh"
#include "mem/page_table.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/flat_vpn_map.hh"
#include "sim/latency.hh"
#include "sim/metrics.hh"
#include "tlb/tlb.hh"
#include "uvm/interfaces.hh"

namespace idyll
{

class TranslationOracle;

/** Per-GPU statistics. */
struct GpuStats : MetricsGroup
{
    explicit GpuStats(GpuId id) : MetricsGroup("gpu" + std::to_string(id))
    {
        setLabel("gpu", std::to_string(id));
    }

    Counter accesses{*this, "accesses"};
    Counter localAccesses{*this, "localAccesses"};
    Counter remoteAccesses{*this, "remoteAccesses"};
    Counter instructions{*this, "instructions"};

    /// requests that missed the L2 TLB
    Counter demandTlbMisses{*this, "demandTlbMisses"};
    /// L2 miss -> translation done
    AvgStat demandTlbMissLatency{*this, "demandTlbMissLatency"};
    Counter farFaultsRaised{*this, "farFaultsRaised"};
    Counter writePermissionFaults{*this, "writePermissionFaults"};
    Counter mshrRetries{*this, "mshrRetries"};

    Counter invalsReceived{*this, "invalsReceived"};
    /// local mapping was logically valid
    Counter invalsNecessary{*this, "invalsNecessary"};
    /// receipt -> PTE updated (immediate)
    AvgStat invalApplyLatency{*this, "invalApplyLatency"};
    /// per-VPN share of batch walks (lazy)
    AvgStat invalWritebackShare{*this, "invalWritebackShare"};
    Counter tlbShootdownHits{*this, "tlbShootdownHits"};

    /// duplicate/retried rounds elided
    Counter dupInvalsIgnored{*this, "dupInvalsIgnored"};

    Counter migRequestsSent{*this, "migRequestsSent"};
    /// L2-miss/IRMB-hit fast faults
    Counter irmbBypassedWalks{*this, "irmbBypassedWalks"};

    /// faults resolved GPU-to-GPU
    Counter transFwForwarded{*this, "transFwForwarded"};
    Counter transFwFallbacks{*this, "transFwFallbacks"};

    /// remote reads bounced off a dead home
    Counter deadHomeRetries{*this, "deadHomeRetries"};
};

/** The GPU device model. */
class Gpu : public GpuItf
{
  public:
    Gpu(EventQueue &eq, const SystemConfig &cfg, GpuId id, Network &net,
        const AddrLayout &layout);

    /** Wire the driver (System does this once). */
    void connectDriver(DriverItf *driver) { _driver = driver; }

    /** Wire peer GPUs for Trans-FW forwarding. */
    void setPeers(std::vector<GpuItf *> peers)
    {
        _peers = std::move(peers);
    }

    /** System-level hooks maintaining the peers' Trans-FW PRTs. */
    void
    setMappingHooks(std::function<void(GpuId, Vpn)> installed,
                    std::function<void(GpuId, Vpn)> dropped)
    {
        _mapInstalledHook = std::move(installed);
        _mapDroppedHook = std::move(dropped);
    }

    /** Attach the translation-coherence oracle (debug runs only). */
    void setOracle(TranslationOracle *oracle) { _oracle = oracle; }

    /** Attach the system tracer; cascades into TLBs, GMMU, and IRMB. */
    void setTracer(Tracer *tracer);

    /** Attach the latency scoreboard; cascades into the GMMU. */
    void setLatency(LatencyScoreboard *latency);

    /**
     * Warm-start helper: install a local mapping with no simulated
     * cost (used by System prepopulation before launch).
     */
    void prepopulateMapping(Vpn vpn, Pfn pfn, bool writable = true);

    /**
     * Launch the workload: one stream per CU. finishTick() records
     * when the last CU drains.
     * @param streams exactly cusPerGpu streams.
     */
    void launch(std::vector<std::unique_ptr<CuStream>> streams);

    /**
     * Issue one data access from @p cu. When the data (local or
     * remote) has been delivered, completedAccesses() counts it and
     * CU @p cu, if launched, resumes the warp context that issued it.
     */
    void access(std::uint32_t cu, VAddr va, bool write);

    /** A CU's warp contexts have all drained its stream. */
    void noteCuDone();

    /**
     * Hot-unplug: the device vanishes from the fabric. All caches,
     * MSHRs, and the local page table are torn down; in-flight
     * continuations become no-ops; peers' PRTs are scrubbed via the
     * dropped-mapping hook. The System marks the node unreachable and
     * drives driver-side quarantine separately.
     */
    void unplug();

    /**
     * Re-attach a previously unplugged device. It rejoins cold (empty
     * TLBs/PT, no CU work — its streams died with the unplug) but can
     * again host migrations and acknowledge invalidations.
     */
    void reattach();

    /** True while the device is unplugged. */
    bool unplugged() const { return _dead; }

    // --- GpuItf ---------------------------------------------------------
    GpuId id() const override { return _id; }
    void receiveInvalidation(Vpn vpn, std::uint32_t round) override;
    void receiveNewMapping(Vpn vpn, Pfn pfn, bool writable) override;
    void applyInstantInvalidation(Vpn vpn) override;
    bool hasValidMapping(Vpn vpn) const override;
    void serveTransFwProbe(Vpn vpn, GpuId requester) override;
    void receiveTransFwReply(
        Vpn vpn, std::optional<ForwardedMapping> mapping) override;

    // --- introspection ---------------------------------------------------
    TlbHierarchy &tlbs() { return _tlbs; }
    Gmmu &gmmu() { return _gmmu; }
    RadixPageTable &localPageTable() { return _localPt; }
    Irmb *irmb() { return _irmb.get(); }
    const Irmb *irmb() const { return _irmb.get(); }
    TransFwPrt *prt() { return _prt.get(); }
    GpuStats &stats() { return _stats; }
    const GpuStats &stats() const { return _stats; }
    Tick finishTick() const { return _finishTick; }

    /**
     * Visit each page's access total, tallied locally during the run,
     * as @p fn(vpn, count). The harness folds every GPU's totals into
     * Figure 4's sharing-degree buckets when it collects results, so
     * the access fast path never makes a cross-shard call. The
     * visiting order is unspecified; callers must not depend on it.
     */
    template <typename Fn>
    void
    forEachAccessTally(Fn &&fn) const
    {
        _vpns.forEach([&fn](Vpn vpn, const VpnState &state) {
            if (state.accessTally != 0)
                fn(vpn, state.accessTally);
        });
    }

    /** Pages with a record: a bound on what forEachAccessTally visits. */
    std::size_t trackedPages() const { return _vpns.size(); }

    /**
     * A retired (ever-unplugged) GPU counts as done: its CU streams'
     * completions were dropped with the device and can never fire,
     * even after a re-attach.
     */
    bool allCusDone() const { return _retired || _doneCus == _cus.size(); }

    /** Accesses whose data has been delivered. */
    std::uint64_t completedAccesses() const { return _completedAccesses; }

    // --- occupancy probes (interval sampler) ------------------------------
    std::size_t mshrOccupancy() const { return _mshr.size(); }
    std::size_t missBacklogDepth() const { return _missBacklog.size(); }

    /** One-line occupancy summary for watchdog/stall reports. */
    void dumpDiagnostics(std::ostream &os) const;

  private:
    struct VpnState; // per-page record, defined with the tables below

    struct Waiter
    {
        std::uint32_t cu = 0;
        bool write = false;
        Tick missStart = 0;
    };

    void handleL2Miss(Vpn vpn, Waiter waiter, bool forceFault);
    void onDemandWalkDone(Vpn vpn, std::uint32_t epoch,
                          const WalkResult &result);
    void raiseFarFault(Vpn vpn, bool write, bool skipPrt);
    void sendFaultToHost(Vpn vpn, bool write);
    /**
     * Release the MSHR waiters for @p vpn with the given translation.
     * @param requireFresh when true (demand-walk path) a pending
     *        buffered invalidation makes the translation stale; the
     *        install path passes false because the epoch check already
     *        ordered the mapping after any buffered invalidation.
     */
    void completeTranslation(Vpn vpn, Pfn pfn, bool writable,
                             bool requireFresh);

    /**
     * Retire every MSHR waiter for @p vpn with this translation; a
     * write to a read-only one re-faults instead.
     * @param cache fill the TLBs; false when the translation is
     *        already superseded (the accesses still complete, since
     *        their fault was resolved before the next invalidation,
     *        but nothing is cached).
     */
    void releaseWaiters(Vpn vpn, Pfn pfn, bool writable, bool cache);
    /**
     * Deliver the data of an access whose translation is @p pfn.
     * @param state @p vpn's record when the caller already holds it
     *        (saves the lookup the remote-access counter needs).
     */
    void dataAccess(std::uint32_t cu, Vpn vpn, Pfn pfn, bool write,
                    Cycles after, VpnState *state = nullptr);
    /** NACK: count a dead-home retry, re-issue after @p delay. */
    void retryAccess(std::uint32_t cu, VAddr va, bool write, Cycles delay);
    /** The data of an access from @p cu has been delivered. */
    void completeAccess(std::uint32_t cu);
    void markInvalApplied(Vpn vpn, std::uint32_t round);
    void sendInvalAck(Vpn vpn, std::uint32_t round, bool wasValid);
    void submitIrmbBatch(Irmb::Batch batch);
    void submitSingleWriteback(Vpn vpn);
    void installMapping(Vpn vpn, Pfn pfn, bool writable);
    void noteMappingInstalled(Vpn vpn);
    void noteMappingDropped(Vpn vpn);

    /** Logically stale: buffered in the IRMB or being written back. */
    bool pendingInvalid(Vpn vpn) const;
    /** pendingInvalid() given @p vpn's record. */
    bool pendingInvalid(Vpn vpn, const VpnState &state) const;

    /** Does any MSHR waiter for @p vpn want write permission? */
    bool mshrWantsWrite(Vpn vpn) const;

    EventQueue &_eq;
    SystemConfig _cfg;
    GpuId _id;
    Network &_net;
    AddrLayout _layout;

    RadixPageTable _localPt;
    TlbHierarchy _tlbs;
    Gmmu _gmmu;
    std::unique_ptr<Irmb> _irmb;
    std::unique_ptr<TransFwPrt> _prt;

    struct BackloggedMiss
    {
        Vpn vpn;
        Waiter waiter;
        bool forceFault;
    };

    /** Re-issue backlogged misses as MSHR entries free up. */
    void drainMissBacklog();

    /**
     * Everything this GPU tracks about one page besides its PTE and
     * TLB entries (DESIGN.md §3). A record is created by the first
     * access or protocol message that writes it and is never erased;
     * read paths look it up with find() and treat a missing record as
     * all zero. unplug() resets every field except accessTally. The
     * fields are packed into 24 bytes, so a FlatVpnMap slot is 32.
     */
    struct VpnState
    {
        std::uint64_t accessTally = 0;      ///< accesses (quiesce replay)
        std::uint32_t accessCounter = 0;    ///< migration trigger count
        std::uint32_t invalEpoch = 0;       ///< invalidations received
        /** Last invalidation round delivered (0: none), its necessity
         *  verdict, and whether it was applied. A duplicate re-acks
         *  with the remembered verdict, and only once applied: under
         *  walk-queue backpressure the invalidation walk can sit
         *  queued for a long time, and re-acking earlier would
         *  complete the round while the PTE is still live. */
        std::uint32_t seenRound = 0;
        bool seenWasValid : 1 = false;
        bool seenApplied : 1 = false;
        bool migrationRequested : 1 = false; ///< counter already fired
        bool writebackInFlight : 1 = false;  ///< IRMB write-back queued
        std::uint16_t installsInFlight = 0;  ///< update walks not done
    };
    static_assert(sizeof(VpnState) == 24, "VpnState must stay 24 bytes");

    /** @return @p vpn's record, or an all-zero one; never inserts. */
    const VpnState &vpnState(Vpn vpn) const;

    MshrFile<Vpn, Waiter> _mshr;
    std::deque<BackloggedMiss> _missBacklog;
    FlatVpnMap<VpnState> _vpns;

    TranslationOracle *_oracle = nullptr;
    Tracer *_tracer = nullptr;
    LatencyScoreboard *_latency = nullptr;
    DriverItf *_driver = nullptr;
    std::vector<GpuItf *> _peers;
    std::function<void(GpuId, Vpn)> _mapInstalledHook;
    std::function<void(GpuId, Vpn)> _mapDroppedHook;

    bool _dead = false;    ///< currently unplugged
    bool _retired = false; ///< ever unplugged (CU streams unrecoverable)

    std::vector<std::unique_ptr<ComputeUnit>> _cus;
    std::uint32_t _doneCus = 0;
    Tick _finishTick = 0;
    std::uint64_t _completedAccesses = 0;

    GpuStats _stats;
};

} // namespace idyll

#endif // IDYLL_GPU_GPU_HH
