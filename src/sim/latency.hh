/**
 * @file
 * Per-request latency attribution (Fig. 5-7 style breakdowns as a
 * first-class simulator output).
 *
 * A LatencyScoreboard tags every demand translation request and every
 * invalidation round with a token when it enters the system and
 * accumulates *exclusive* cycle spans per phase as the request moves
 * through the machine: L1/L2 TLB probe, IRMB probe, MSHR wait, page
 * walker queue, the local walk itself, far-fault service on the host,
 * network transit, migration wait, and the TLB shootdown stall.
 *
 * Spans are exclusive and contiguous by construction — each token
 * carries (start, last, phase) and a phase transition closes the
 * current span at the transition tick — so the per-phase spans of a
 * finished request sum *exactly* to its end-to-end latency. That
 * invariant is checked on every finish() and routed to the integrity
 * subsystem's violation handler (panic by default).
 *
 * Finished requests land in log-bucketed HDR-style histograms
 * (exact below 64 cycles, 16 sub-buckets per power of two above) per
 * (GPU, kind, phase), giving p50/p95/p99/max without storing samples.
 *
 * The scoreboard is passive: it never schedules events and never
 * perturbs simulated timing, so enabling it cannot change results or
 * trace digests. Call sites compile out entirely when the build sets
 * IDYLL_LATENCY_ENABLED=0 (mirroring IDYLL_TRACE).
 *
 * Logging (DESIGN.md section 11): mutators never touch the token
 * table directly. Each call is recorded as a LatOp in a per-NODE lane
 * (lane 0 = host, lane 1+g = GPU g) stamped with the executing
 * queue's clock. Lanes are single-writer under sharding — every
 * mutation of node n's state runs on n's shard — so the hot path is
 * lock-free. At every rendezvous (and before any query) an
 * OrderedLanes merge (sim/ordered_lanes.hh) applies the ops in
 * (execTick, lane rank, lane FIFO) order. Serial runs log and merge
 * through the *same* path, so sharded attribution is bit-identical
 * to serial by construction. A merge whose execTick moves backwards
 * trips the violation handler: that is the observable symptom of a
 * broken rendezvous flush.
 */

#ifndef IDYLL_SIM_LATENCY_HH
#define IDYLL_SIM_LATENCY_HH

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/ordered_lanes.hh"
#include "sim/types.hh"

namespace idyll
{

class EventQueue;

/** The translation-latency phases a request moves through. */
enum class LatencyPhase : std::uint8_t
{
    L1Probe,        ///< L1 TLB lookup
    L2Probe,        ///< L2 TLB lookup
    IrmbProbe,      ///< IRMB probe alongside the walk-queue admit
    MshrWait,       ///< waiting for a free L2 MSHR (backlogged miss)
    PtwQueue,       ///< queued behind other walks in the GMMU
    LocalWalk,      ///< the page-table walk itself
    FarFault,       ///< UVM driver fault service on the host
    Network,        ///< NVLink/PCIe transit (requests, replies, acks)
    MigrationWait,  ///< fault blocked behind an in-flight migration
    ShootdownStall, ///< TLB shootdown on invalidation receipt
};

constexpr std::uint32_t kNumLatencyPhases = 10;

/** Short stable name, e.g. "ptw-queue" (used in JSON and reports). */
const char *latencyPhaseName(LatencyPhase phase);

/** What kind of request a token tracks. */
enum class RequestKind : std::uint8_t
{
    Demand,       ///< a demand translation (L2 TLB miss to data return)
    Invalidation, ///< one invalidation round leg (send to ack arrival)
};

constexpr std::uint32_t kNumRequestKinds = 2;

const char *requestKindName(RequestKind kind);

/**
 * Log-bucketed latency histogram, HDR style: values below kLinear are
 * recorded exactly (one bucket per value); above that each power of
 * two is split into kSubBuckets geometric sub-buckets, bounding the
 * relative quantile error at 1/kSubBuckets. min/max/sum/count are
 * exact. All state is integer, so merged and serialized histograms
 * are bit-identical across serial and parallel runs.
 */
class LogHistogram
{
  public:
    static constexpr std::uint32_t kLinear = 64;
    static constexpr std::uint32_t kSubBuckets = 16;
    static constexpr std::uint32_t kBuckets =
        kLinear + (64 - 6) * kSubBuckets;

    void record(std::uint64_t value, std::uint64_t weight = 1);

    std::uint64_t count() const { return _count; }
    std::uint64_t sum() const { return _sum; }
    std::uint64_t min() const { return _count ? _min : 0; }
    std::uint64_t max() const { return _max; }

    /**
     * Value at percentile @p p (0 < p <= 100): the lower bound of the
     * bucket holding the p-th sample, clamped to [min, max]. Exact
     * for values below kLinear.
     */
    std::uint64_t percentile(double p) const;

    void merge(const LogHistogram &other);

    /** Bucket index for @p value (exposed for boundary-case tests). */
    static std::uint32_t bucketIndex(std::uint64_t value);

    /** Lower bound of bucket @p index (its representative value). */
    static std::uint64_t bucketFloor(std::uint32_t index);

    /** {"count":..,"min":..,"max":..,"p50":..,"p95":..,"p99":..} */
    std::string toJson() const;

  private:
    std::vector<std::uint64_t> _buckets; // grown on first record
    std::uint64_t _count = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _min = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t _max = 0;
};

/**
 * One windowed epoch of finished-request attribution, as returned by
 * LatencyScoreboard::snapshotAndReset(). Everything is aggregated
 * over GPUs; histograms are merged copies, so a window outlives the
 * scoreboard that produced it. The serve harness (harness/serve.hh)
 * takes one snapshot per measurement window to compute windowed
 * p50/p99/p99.9 without warmup contamination.
 */
struct LatencyWindow
{
    /** Finished tokens per kind, index = RequestKind enum value. */
    std::array<std::uint64_t, kNumRequestKinds> finished{};

    /** Summed end-to-end cycles per kind. */
    std::array<std::uint64_t, kNumRequestKinds> totalCycles{};

    /** End-to-end latency histogram per kind (merged over GPUs). */
    std::array<LogHistogram, kNumRequestKinds> totalHist{};

    /** Exclusive phase cycles, [kind][phase]. */
    std::array<std::array<std::uint64_t, kNumLatencyPhases>,
               kNumRequestKinds>
        phaseCycles{};

    /**
     * Tokens finalized with the `aborted` disposition (their request
     * died with an unplugged GPU). Counted for degraded-mode
     * accounting but excluded from the latency histograms, so SLO
     * percentiles only describe requests that actually completed.
     */
    std::array<std::uint64_t, kNumRequestKinds> aborted{};

    /** Fold @p other into this window (exact integer merge). */
    void merge(const LatencyWindow &other);
};

/**
 * Per-request phase attribution for one MultiGpuSystem. One instance
 * per system (never shared across threads), so parallel sweeps stay
 * bit-identical to serial runs.
 */
class LatencyScoreboard
{
  public:
    /** Mutations log against @p clock, the system's event queue. */
    LatencyScoreboard(EventQueue &clock, std::uint32_t numGpus);
    LatencyScoreboard(const LatencyScoreboard &) = delete;
    LatencyScoreboard &operator=(const LatencyScoreboard &) = delete;

    /**
     * Install the handler invoked when a finished token's phase spans
     * do not sum to its end-to-end latency. The harness wires this to
     * the integrity subsystem (dump the protocol trace, then panic);
     * tests install a capturing handler. The default panics.
     */
    void setViolationHandler(
        std::function<void(const std::string &)> handler);

    /**
     * Open a token for (kind, gpu, vpn) at @p now. No-op if a token
     * is already active for that key (merged secondary misses and
     * invalidation retries ride the original token). @p tag guards
     * finish() against stale completions (invalidation round number).
     *
     * @p exec names the node whose event handler makes the call
     * (kHostId for driver code, the GPU id for device code); it
     * selects the single-writer op lane and must match the shard the
     * caller executes on. Same for every mutator below.
     */
    void begin(GpuId exec, RequestKind kind, GpuId gpu, Vpn vpn,
               Tick now, std::uint32_t tag = 0);

    bool active(RequestKind kind, GpuId gpu, Vpn vpn) const;

    /**
     * Transition the token into @p phase at @p tick, crediting the
     * cycles since the previous transition to the previous phase.
     * Ticks earlier than the previous transition are clamped (a
     * zero-length span), which keeps the sum invariant exact even on
     * redundant transitions. No-op for unknown tokens.
     */
    void enter(GpuId exec, RequestKind kind, GpuId gpu, Vpn vpn,
               LatencyPhase phase, Tick tick);

    /**
     * Split the combined L1+L2 probe latency of a fresh demand miss:
     * credits up to @p l1Latency cycles to L1Probe, the remainder to
     * L2Probe, and moves the token to IrmbProbe at @p now. No-op
     * unless the token is still in L1Probe (so merged secondaries and
     * backlog re-entries do not re-split).
     */
    void demandMissProbed(GpuId exec, GpuId gpu, Vpn vpn,
                          Cycles l1Latency, Tick now);

    /**
     * Close the token at @p now: credit the trailing span, check the
     * sum invariant, fold the spans into the per-(GPU, kind, phase)
     * totals and histograms, and retire the token. No-op for unknown
     * tokens or when @p tag differs from the token's tag.
     */
    void finish(GpuId exec, RequestKind kind, GpuId gpu, Vpn vpn,
                Tick now, std::uint32_t tag = 0);

    /** Abandon a token without recording anything. */
    void drop(GpuId exec, RequestKind kind, GpuId gpu, Vpn vpn);

    /**
     * Finalize a token with the `aborted` disposition: the request
     * died with an unplugged GPU (or was explicitly cancelled). The
     * token is retired WITHOUT the span-sum check and WITHOUT
     * entering any histogram — aborted requests are counted, not
     * timed, so they can never skew SLO percentiles or trip the
     * invariant with a half-accumulated span set. No-op for unknown
     * tokens.
     */
    void abort(GpuId exec, RequestKind kind, GpuId gpu, Vpn vpn);

    /**
     * Abort every in-flight token keyed to @p gpu, any kind. Called
     * on hot-unplug so tokens orphaned by the dead device cannot trip
     * the span-sum invariant when a stale completion path fires.
     * Unplug recovery runs serial-only, so this flushes the op log
     * and then mutates the token table directly (which is what makes
     * the synchronous return count possible).
     * @return tokens aborted.
     */
    std::size_t abortAllForGpu(GpuId gpu);

    /** Cumulative aborted-token count for @p kind. */
    std::uint64_t aborted(RequestKind kind) const;

    /**
     * Record a completed local walk touching @p levels PT levels.
     * The executing node is @p gpu (walks run on the owning GMMU).
     */
    void noteWalk(GpuId gpu, std::uint32_t levels, Cycles cycles);

    /**
     * Test hook: add @p extra cycles to @p phase of an active token
     * WITHOUT moving its clock, seeding a sum-invariant violation
     * that finish() must catch. Executes on the token's own node.
     */
    void skewForTest(RequestKind kind, GpuId gpu, Vpn vpn,
                     LatencyPhase phase, Cycles extra);

    /**
     * Drain every op lane through the deterministic (execTick, lane
     * rank, lane FIFO) merge and apply the ops. Call only while the
     * simulation is quiescent: the rendezvous hook under sharding,
     * or any query/snapshot boundary. No-op when empty.
     */
    void flushOps();

    /**
     * Epoch boundary for long serve runs: return everything finished
     * since the previous snapshot (or construction) as a
     * LatencyWindow, then reset the finished-request aggregates so
     * the next window starts clean. In-flight tokens are NOT touched:
     * a request spanning the boundary keeps accumulating spans
     * against its original start tick, so the span-sum == end-to-end
     * invariant checked by finish() holds across window boundaries
     * and the token is counted in the window where it finishes.
     * Walk-depth tables and the violation count are cumulative and
     * survive the reset.
     */
    LatencyWindow snapshotAndReset();

    // --- queries (aggregated over GPUs) ------------------------------
    // Every query flushes the op log first, so results always reflect
    // all mutations logged so far (quiescent-call rule applies).
    std::uint64_t finished(RequestKind kind) const;
    std::uint64_t totalCycles(RequestKind kind) const;
    std::uint64_t phaseCycles(RequestKind kind,
                              LatencyPhase phase) const;
    const LogHistogram &phaseHist(RequestKind kind,
                                  LatencyPhase phase) const;
    const LogHistogram &totalHist(RequestKind kind) const;
    std::size_t activeTokens() const;
    std::uint64_t violations() const;

    /**
     * Serialize all attribution state as one JSON object: per-kind
     * aggregate phase cycles + histograms, per-GPU phase cycles, and
     * the walk-depth table. Integer-only, fixed key order — safe to
     * compare bit-for-bit across serial and parallel runs.
     */
    std::string toJson() const;

  private:
    struct Token
    {
        Tick start = 0;
        Tick last = 0;
        LatencyPhase phase = LatencyPhase::L1Probe;
        std::uint32_t tag = 0;
        std::array<std::uint64_t, kNumLatencyPhases> spans{};
    };

    /** Per-(kind, GPU) aggregates. */
    struct Agg
    {
        std::array<std::uint64_t, kNumLatencyPhases> phaseCycles{};
        std::array<LogHistogram, kNumLatencyPhases> phaseHist{};
        LogHistogram total{};
        std::uint64_t count = 0;
        std::uint64_t totalCycles = 0;
    };

    /** One logged mutator call; see the file comment. */
    struct LatOp
    {
        enum class Code : std::uint8_t
        {
            Begin,
            Enter,
            DemandMissProbed,
            Finish,
            Drop,
            Abort,
            NoteWalk,
        };

        Code code;
        RequestKind kind;
        LatencyPhase phase;
        GpuId gpu;
        Vpn vpn;
        Tick execTick; ///< executing queue's clock; the merge key
        Tick tick;     ///< the call's now/tick argument
        std::uint64_t a; ///< tag / l1Latency / levels
        std::uint64_t b; ///< noteWalk cycles
    };

    static std::uint64_t key(RequestKind kind, GpuId gpu, Vpn vpn);
    Token *find(RequestKind kind, GpuId gpu, Vpn vpn);
    const Token *find(RequestKind kind, GpuId gpu, Vpn vpn) const;

    std::size_t laneRank(GpuId exec) const;
    void logOp(GpuId exec, LatOp op);
    void applyOp(const LatOp &op);
    /** const-query shim: flush is logically non-mutating. */
    void syncLog() const
    {
        const_cast<LatencyScoreboard *>(this)->flushOps();
    }

    // The mutator bodies, applied in merge order.
    void applyBegin(RequestKind kind, GpuId gpu, Vpn vpn, Tick now,
                    std::uint32_t tag);
    void applyEnter(RequestKind kind, GpuId gpu, Vpn vpn,
                    LatencyPhase phase, Tick tick);
    void applyDemandMissProbed(GpuId gpu, Vpn vpn, Cycles l1Latency,
                               Tick now);
    void applyFinish(RequestKind kind, GpuId gpu, Vpn vpn, Tick now,
                     std::uint32_t tag);

    std::uint32_t _numGpus;
    std::unordered_map<std::uint64_t, Token> _tokens;

    EventQueue &_clock;
    /** Single-writer op lanes: [0] host, [1 + g] GPU g. */
    OrderedLanes<LatOp, &LatOp::execTick> _log;
    /** Ops logged and not yet applied (maintained in serial only). */
    std::size_t _pendingOps = 0;
    /** Serial flush cadence (sharded runs flush at each rendezvous). */
    static constexpr std::size_t kFlushThreshold = 4096;
    // [kind][gpu]
    std::vector<std::array<Agg, kNumRequestKinds>> _agg;
    // walk depth -> {count, cycles}; depth clamped to 8 levels
    static constexpr std::uint32_t kMaxWalkDepth = 8;
    std::array<std::uint64_t, kMaxWalkDepth + 1> _walkDepthCount{};
    std::array<std::uint64_t, kMaxWalkDepth + 1> _walkDepthCycles{};
    std::array<std::uint64_t, kNumRequestKinds> _abortedTotal{};
    std::array<std::uint64_t, kNumRequestKinds> _windowAborted{};
    std::uint64_t _violations = 0;
    std::function<void(const std::string &)> _onViolation;
};

} // namespace idyll

/**
 * IDYLL_LAT(sb, call) — invoke `sb->call` iff the scoreboard pointer
 * is set. When the build disables latency attribution the arguments
 * are still type-checked but generate no code (same discipline as
 * IDYLL_TRACE).
 */
#ifndef IDYLL_LATENCY_ENABLED
#define IDYLL_LATENCY_ENABLED 1
#endif

#if IDYLL_LATENCY_ENABLED
#define IDYLL_LAT(sb, call)                                           \
    do {                                                              \
        if (sb)                                                       \
            (sb)->call;                                               \
    } while (0)
#else
#define IDYLL_LAT(sb, call)                                           \
    do {                                                              \
        if (false) {                                                  \
            if (sb)                                                   \
                (sb)->call;                                           \
        }                                                             \
    } while (0)
#endif

#endif // IDYLL_SIM_LATENCY_HH
