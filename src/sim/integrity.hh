/**
 * @file
 * Simulation integrity subsystem: the translation-coherence oracle, a
 * protocol-event ring-buffer trace, and the seeded network fault
 * injector.
 *
 * The oracle is a debug-mode shadow model of the whole multi-GPU
 * translation protocol. It tracks, per VPN, the authoritative host
 * mapping and every GPU-local copy, and asserts the three safety
 * properties IDYLL's correctness rests on:
 *
 *  (a) no translation is served from a local PTE after the host has
 *      completed (fully acked) that page's invalidation round;
 *  (b) an invalidation round's recipient set is a superset of the
 *      GPUs actually holding a servable mapping (over-invalidation is
 *      allowed, under-invalidation is a hard failure);
 *  (c) every IRMB-buffered invalidation is eventually drained -- no
 *      lost invalidations at eviction or overflow.
 *
 * Violations dump the protocol trace and abort via panic(). With the
 * oracle disabled every hook sits behind a null-pointer check, so the
 * cost is near zero.
 */

#ifndef IDYLL_SIM_INTEGRITY_HH
#define IDYLL_SIM_INTEGRITY_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/metrics.hh"
#include "sim/types.hh"

namespace idyll
{

/** Protocol event kinds recorded in the diagnostic ring buffer. */
enum class ProtoEvent : std::uint8_t
{
    HostInstall,   ///< host page table gained a mapping
    LocalInstall,  ///< a GPU's local PTE gained a mapping
    LocalDrop,     ///< a GPU's local PTE lost its mapping
    InvalBuffered, ///< invalidation deferred into the IRMB
    InvalDrained,  ///< buffered invalidation written back (or elided)
    RoundStart,    ///< driver dispatched an invalidation round
    RoundComplete, ///< all acks for a round received
    Serve,         ///< translation served from a local PTE
    InvalRecv,     ///< GPU received an invalidation message
    InvalRetry,    ///< driver re-sent an unacked invalidation
    GpuUnplug,     ///< device hot-unplugged from the fabric
    GpuReattach,   ///< device re-attached (cold) after an unplug
};

/** Short name for trace dumps. */
const char *protoEventName(ProtoEvent ev);

/** One recorded protocol event. */
struct ProtocolRecord
{
    Tick tick = 0;
    ProtoEvent event = ProtoEvent::HostInstall;
    GpuId gpu = kInvalidGpu;
    Vpn vpn = 0;
    std::uint64_t aux = 0; ///< pfn, round, or target mask by kind
};

/** Fixed-depth ring buffer of the last N protocol events. */
class ProtocolTrace
{
  public:
    explicit ProtocolTrace(std::uint32_t depth);

    void record(Tick tick, ProtoEvent event, GpuId gpu, Vpn vpn,
                std::uint64_t aux = 0);

    /** Print the retained events, oldest first. */
    void dump(std::ostream &os) const;

    /** Total events ever recorded (may exceed the retained depth). */
    std::uint64_t recorded() const { return _next; }

  private:
    std::vector<ProtocolRecord> _ring;
    std::uint64_t _next = 0;
};

/**
 * Shadow model of host + per-GPU translation state. Components report
 * state transitions through the hooks; the oracle cross-checks them
 * against the protocol invariants above.
 */
class TranslationOracle
{
  public:
    TranslationOracle(const EventQueue &eq, std::uint32_t numGpus,
                      std::uint32_t traceDepth);

    // --- host-side transitions -------------------------------------
    /** Host page table installed (vpn -> pfn). */
    void onHostInstall(Vpn vpn, Pfn pfn);

    // --- GPU-side transitions --------------------------------------
    /** GPU @p gpu installed a servable local mapping. */
    void onLocalInstall(GpuId gpu, Vpn vpn, Pfn pfn, bool writable);

    /** GPU @p gpu's local PTE for @p vpn became non-servable. */
    void onLocalDrop(GpuId gpu, Vpn vpn);

    /** Invalidation deferred into @p gpu's IRMB (mapping unservable). */
    void onInvalBuffered(GpuId gpu, Vpn vpn);

    /** A buffered invalidation was written back or legally elided. */
    void onInvalDrained(GpuId gpu, Vpn vpn);

    // --- device loss ------------------------------------------------
    /**
     * GPU @p gpu hot-unplugged. Its shadow copies are wiped (the
     * device's state is gone, not stale) and the GPU joins the dead
     * mask: any later install/serve naming it — or any serve of a
     * translation whose frame is homed on it — is a violation until
     * onGpuReattach().
     */
    void onGpuUnplug(GpuId gpu);

    /** GPU @p gpu re-attached cold; it may hold mappings again. */
    void onGpuReattach(GpuId gpu);

    /** Bit per GPU currently unplugged. */
    std::uint64_t deadMask() const { return _deadMask; }

    // --- driver-side transitions -----------------------------------
    /**
     * Invalidation round dispatched to the GPUs in @p targetMask.
     * Checks invariant (b): every current holder must be targeted.
     */
    void onInvalRoundStart(Vpn vpn, std::uint32_t round,
                           std::uint64_t targetMask);

    /**
     * All acks for @p round received. Checks invariant (a)'s
     * precondition: no GPU may still hold a servable mapping.
     */
    void onInvalRoundComplete(Vpn vpn, std::uint32_t round);

    // --- serves ----------------------------------------------------
    /**
     * GPU @p gpu served a translation from its local PTE/TLB. Checks
     * invariant (a): the shadow model must agree the mapping is live,
     * match the pfn, and (for writes) be the authoritative copy.
     */
    void onServeFromLocalPte(GpuId gpu, Vpn vpn, Pfn pfn, bool write);

    // --- auxiliary --------------------------------------------------
    /** Record a trace-only event (no invariant checked). */
    void recordEvent(ProtoEvent event, GpuId gpu, Vpn vpn,
                     std::uint64_t aux = 0);

    /**
     * Install the IRMB membership probe used by finalize() to verify
     * invariant (c): a still-buffered invalidation must still be
     * present in the real IRMB (otherwise it was lost).
     */
    void setIrmbProbe(std::function<bool(GpuId, Vpn)> probe);

    /** End-of-run checks: invariant (c) plus shadow self-consistency. */
    void finalize() const;

    /** Number of invariant checks performed (for reporting). */
    std::uint64_t checks() const { return _checks; }

    /** Expose the trace for watchdog/stall dumps. */
    const ProtocolTrace &trace() const { return _trace; }

    /**
     * Tell the oracle how many shards the run requested so violation
     * reports can attribute the offending GPU to its shard (the
     * oracle itself always runs serially — see System's
     * serialize-fallback — but a violation found while reproducing a
     * sharded run serially should still name the shard the GPU lives
     * on). 0 or 1 disables attribution.
     */
    void setShardMap(std::uint32_t shards) { _shards = shards; }

  private:
    struct Shadow
    {
        Pfn hostPfn = 0;
        bool hostValid = false;
        std::uint64_t validMask = 0;    ///< GPUs with a servable copy
        std::uint64_t bufferedMask = 0; ///< GPUs with an IRMB entry
        std::uint64_t writableMask = 0; ///< servable AND writable
        std::vector<Pfn> localPfn;      ///< last installed pfn per GPU
    };

    Shadow &shadowOf(Vpn vpn);

    /**
     * Abort with a diagnostic. When @p gpu names a device and a shard
     * map is set, the report carries the shard the GPU maps to.
     */
    [[noreturn]] void violation(Vpn vpn, const std::string &what,
                                GpuId gpu = kInvalidGpu) const;

    const EventQueue &_eq;
    std::uint32_t _numGpus;
    mutable ProtocolTrace _trace;
    std::unordered_map<Vpn, Shadow> _pages;
    std::function<bool(GpuId, Vpn)> _irmbProbe;
    std::uint64_t _deadMask = 0;
    std::uint32_t _shards = 1;
    mutable std::uint64_t _checks = 0;
};

// ------------------------------------------------------------------
// Fault injection
// ------------------------------------------------------------------

/** Message classes the injector can perturb. */
enum class FaultMsg : std::uint8_t
{
    Inval,  ///< host -> GPU PTE invalidation
    Ack,    ///< GPU -> host invalidation ack
    MigReq, ///< GPU -> host migration request
};

/** One injection rule from a fault plan. */
struct FaultRule
{
    enum class Action : std::uint8_t
    {
        Delay,     ///< add @c value cycles to the arrival time
        Duplicate, ///< deliver a second copy @c value cycles later
        Drop,      ///< never deliver (requires driver retry)
    };

    FaultMsg msg = FaultMsg::Inval;
    Action action = Action::Delay;
    Cycles value = 0;
    double probability = 1.0;
};

/** A parsed fault plan: ordered list of rules. */
struct FaultPlan
{
    std::vector<FaultRule> rules;

    bool empty() const { return rules.empty(); }

    /** True if any rule can drop a message. */
    bool hasDrops() const;
};

/**
 * Parse a fault-plan string.
 *
 * Grammar (comma-separated rules):
 *   rule  := class '.' action [ '=' cycles ] [ '@' probability ]
 *   class := 'inval' | 'ack' | 'migreq'
 *   action:= 'delay' | 'dup' | 'drop'
 *
 * 'delay' requires a cycle count; 'dup' takes an optional copy delay
 * (default 500 cycles); 'drop' takes no value and is only legal for
 * inval/ack (dropping a migration request would lose work the retry
 * machinery cannot recover). Cycle counts are unsigned decimal, at
 * most kMaxPlanTick. Probability defaults to 1.0 and must lie in
 * [0, 1] (NaN is refused).
 *
 * Example: "inval.delay=800@0.3,inval.dup@0.2,ack.drop@0.05"
 *
 * On bad syntax, returns nullopt and (when @p error is non-null) fills
 * it with ONE message covering EVERY invalid rule, each with a caret
 * under the offending token — one round trip fixes them all.
 */
std::optional<FaultPlan> parseFaultPlan(const std::string &text,
                                        std::string *error = nullptr);

/** Injection statistics. */
struct FaultStats
{
    Counter delayed;
    Counter duplicated;
    Counter dropped;
};

/**
 * Seeded, deterministic fault injector. The network consults decide()
 * once per eligible message, passing the message's 64-bit delivery
 * key. Each rule's outcome is a pure hash of (seed, key, rule index)
 * — no mutable RNG stream — so whether a given message is faulted
 * depends only on the message's identity, never on how many other
 * messages were sent first. Serial and sharded runs therefore fault
 * exactly the same messages (DESIGN.md section 10).
 */
class FaultInjector
{
  public:
    FaultInjector(FaultPlan plan, std::uint64_t seed);

    /** Outcome for one message. */
    struct Decision
    {
        bool drop = false;
        Cycles extraDelay = 0;
        bool duplicate = false;
        Cycles duplicateDelay = 0;
    };

    /**
     * Decide the fate of one message of class @p msg whose network
     * delivery key is @p key. Stateless apart from statistics, which
     * land in the calling shard's lane.
     */
    Decision decide(FaultMsg msg, std::uint64_t key);

    /**
     * Canonical (lane-0) statistics; complete on sharded runs only
     * after foldStats().
     */
    const FaultStats &stats() const { return _stats[0]; }

    /** Fold per-shard stat lanes into lane 0 (idempotent). */
    void foldStats();

  private:
    /** The calling shard's stat slice. */
    FaultStats &statLane();

    FaultPlan _plan;
    std::uint64_t _seed;
    /** Per-shard stat slices; [0] is canonical after foldStats(). */
    std::vector<FaultStats> _stats;
};

} // namespace idyll

#endif // IDYLL_SIM_INTEGRITY_HH
