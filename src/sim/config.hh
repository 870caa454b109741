/**
 * @file
 * System configuration mirroring Table 2 of the paper, plus the knobs
 * that select the translation-coherence scheme under study.
 */

#ifndef IDYLL_SIM_CONFIG_HH
#define IDYLL_SIM_CONFIG_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace idyll
{

/** Page-migration policy (Section 3.3). */
enum class MigrationPolicy
{
    FirstTouch,    ///< pin on first GPU touch, never migrate again
    OnTouch,       ///< migrate on every remote touch
    AccessCounter, ///< migrate when the remote-access counter saturates
};

/** Who receives PTE invalidation requests on a migration. */
enum class InvalFilter
{
    Broadcast,       ///< UVM driver broadcasts to every GPU (baseline)
    InPteDirectory,  ///< access bits in the host PTE (IDYLL)
    InMemDirectory,  ///< VM-Table + VM-Cache (IDYLL-InMem)
};

/**
 * Initial residency state. HomeShard starts each page resident on its
 * natural home GPU with the mapping pre-installed (warmed-up system;
 * far faults then reflect steady-state sharing, not cold loading).
 */
enum class Prepopulate
{
    None,      ///< every page starts in host memory (cold UVM start)
    HomeShard, ///< pages pre-placed on their home GPU
};

/** How a GPU applies a received PTE invalidation. */
enum class InvalApply
{
    Immediate,   ///< page-table walk through the GMMU (baseline)
    Lazy,        ///< buffer in the IRMB, write back lazily (IDYLL)
    ZeroLatency, ///< oracle: PTE updated instantly, no contention
};

/** One TLB level. */
struct TlbConfig
{
    std::uint32_t entries = 32;
    std::uint32_t ways = 32;
    Cycles lookupLatency = 1;

    /**
     * Sub-entry sharing (PAPERS.md: MIG): one tag covers subEntries
     * contiguous pages whose PFNs are contiguous from the anchoring
     * fill. 1 = classic one-page entries. Must be a power of two;
     * only modeled in the shared L2 TLB.
     */
    std::uint32_t subEntries = 1;

    /** Dead-entry-aware eviction (reuse-predicted LIP insertion). */
    bool deadEntryEviction = false;

    bool operator==(const TlbConfig &) const = default;
};

/** Geometry of one per-level MMU cache (split PSCL-style). */
struct MmuCacheLevelConfig
{
    std::uint32_t entries = 0;
    std::uint32_t ways = 0;

    bool operator==(const MmuCacheLevelConfig &) const = default;
};

/** GMMU: page-walk queue, walker threads, per-level MMU caches. */
struct GmmuConfig
{
    std::uint32_t walkerThreads = 8;
    std::uint32_t walkQueueEntries = 64;

    /**
     * NACK-retry interval when the walk queue is full: a rejected
     * submit re-attempts after this many cycles, and the stall time
     * counts toward the request's queue wait. Must be nonzero — a
     * zero interval would respin the same tick forever.
     */
    Cycles walkQueueRetryLatency = 8;

    /**
     * Split per-level MMU caches (the ChampSim PSCL5-PSCL2 shape),
     * replacing the old single shared 128-entry PWC. Index i holds
     * pointers to node level i+1: [0] caches leaf-node pointers (the
     * hottest, PSCL2 analogue), [3] caches level-4 pointers. Walks
     * start at the deepest valid cached level. Levels past the vector
     * reuse the last element; total default budget (120 entries) is
     * deliberately close to the old 128.
     */
    std::vector<MmuCacheLevelConfig> mmuCache{
        {64, 8}, {32, 4}, {16, 4}, {8, 4}};

    /** Dead-entry-aware eviction across all MMU-cache levels. */
    bool deadEntryEviction = false;

    Cycles perLevelLatency = 100;   ///< memory access per PT level
    Cycles pwcLookupLatency = 1;    ///< MMU-cache hierarchy probe

    bool operator==(const GmmuConfig &) const = default;
};

/** IRMB geometry (Section 6.3). */
struct IrmbConfig
{
    std::uint32_t bases = 32;          ///< merged entries
    std::uint32_t offsetsPerBase = 16; ///< 9-bit L1 slots per entry

    /**
     * Ablation knob: write evicted entries back as one batched walk
     * (the paper's design) or as individual PTE walks. Quantifies how
     * much of Lazy Invalidation's gain comes from batching vs from
     * merely deferring the work.
     */
    bool batchedWriteback = true;

    /**
     * Ablation knob: drain the LRU entry opportunistically whenever
     * the walker goes idle (the paper's design). Off = write back
     * only on capacity evictions.
     */
    bool idleDrain = true;

    /**
     * Hardware cost in bytes: ceil((36-bit base + offsets x 9 bits) x
     * entries / 8), rounded up so odd geometries are not under-costed.
     */
    std::uint64_t
    sizeBytes() const
    {
        return ((36 + 9ull * offsetsPerBase) * bases + 7) / 8;
    }

    bool operator==(const IrmbConfig &) const = default;
};

/** VM-Cache geometry for IDYLL-InMem (Section 6.4). */
struct VmCacheConfig
{
    std::uint32_t entries = 64;
    std::uint32_t ways = 4;
    Cycles lookupLatency = 2;
    Cycles vmTableAccessLatency = 120; ///< host DRAM access on miss

    bool operator==(const VmCacheConfig &) const = default;
};

/** Trans-FW comparator (Section 7.5), scaled to 720 B / 443 entries. */
struct TransFwConfig
{
    bool enabled = false;
    std::uint32_t fingerprints = 443;
    Cycles remoteLookupLatency = 50; ///< PRT probe on the remote GPU

    bool operator==(const TransFwConfig &) const = default;
};

/** A point-to-point link: fixed latency plus serialization by rate. */
struct LinkConfig
{
    double bandwidthBytesPerCycle = 300.0; ///< 300 GB/s @ 1 GHz
    Cycles latency = 500;                  ///< one-way propagation

    bool operator==(const LinkConfig &) const = default;
};

/**
 * Simulation integrity knobs: the translation-coherence oracle, the
 * network fault injector, and the no-progress watchdog. All off by
 * default; near-zero cost when off.
 */
struct IntegrityConfig
{
    /** Run the shadow translation-coherence oracle. */
    bool oracle = false;

    /** Depth of the protocol-event ring buffer dumped on violations. */
    std::uint32_t traceDepth = 64;

    /** Watchdog: max events with no progress (0 = unlimited). */
    std::uint64_t watchdogMaxIdleEvents = 0;

    /** Watchdog: max ticks with no progress (0 = unlimited). */
    Tick watchdogMaxIdleTicks = 0;

    /**
     * Fault plan, e.g. "inval.delay=800@0.3,ack.dup@0.1". Empty
     * disables injection. See parseFaultPlan() for the grammar.
     */
    std::string faultPlan;

    /**
     * Driver re-sends unacked invalidations after this many cycles
     * (0 = no retry). This is the BASE interval: the driver backs off
     * exponentially per attempt (capped at 64x) with seeded jitter,
     * so retries stay deterministic for a fixed seed but never
     * synchronize into a thundering herd. Required when the fault
     * plan drops messages.
     */
    Cycles invalRetryTimeout = 0;

    /**
     * GPU hot-unplug schedule, e.g. "g1@60000/140000". Empty = no
     * device loss. See parseUnplugPlan() for the grammar.
     */
    std::string unplugPlan;

    /**
     * Test-only sabotage: when >= 0, the driver silently suppresses
     * every invalidation addressed to this GPU id, so an oracle run
     * is guaranteed to trip a violation. Exists so the chaos soak
     * harness can be forced to fail end-to-end (fork, classify,
     * minimize) in a deterministic test. Never set in real runs.
     */
    std::int32_t suppressInvalGpuForTest = -1;

    bool operator==(const IntegrityConfig &) const = default;
};

/**
 * Raised by SystemConfig::validate(). Aggregates every violated
 * constraint, not just the first, so one round trip fixes them all.
 */
class ConfigError : public std::runtime_error
{
  public:
    explicit ConfigError(std::vector<std::string> violations);

    /** Each violated constraint, one human-readable line apiece. */
    const std::vector<std::string> &violations() const
    {
        return _violations;
    }

  private:
    std::vector<std::string> _violations;
};

/**
 * Structured event tracing (sim/trace.hh). Off by default; enabling a
 * category set turns on the per-system Tracer and the trace digest.
 */
struct TraceConfig
{
    /** Category filter: "all" or csv of tlb,irmb,dir,walk,mig,inval,fault,net. */
    std::string categories;

    /** When nonempty, stream JSONL events to this file (single runs only). */
    std::string jsonlPath;

    bool operator==(const TraceConfig &) const = default;
};

/**
 * Per-request latency attribution (sim/latency.hh). Off by default;
 * the scoreboard is passive (never schedules events), so enabling it
 * cannot change simulated timing or trace digests.
 */
struct LatencyConfig
{
    /** Run the per-request latency scoreboard. */
    bool enabled = false;

    bool operator==(const LatencyConfig &) const = default;
};

/**
 * Interval occupancy sampling (sim/sampler.hh). everyCycles == 0
 * disables sampling entirely (no wake events are ever scheduled).
 */
struct SamplerConfig
{
    /** Epoch length in cycles; 0 = sampling off. */
    Cycles everyCycles = 0;

    /** Ring capacity; oldest records are dropped past this. */
    std::uint32_t maxRecords = 4096;

    /** When nonempty, write the sample JSON to this file after a run. */
    std::string jsonPath;

    bool operator==(const SamplerConfig &) const = default;
};

/** Full system configuration. Defaults reproduce Table 2. */
struct SystemConfig
{
    // --- topology -------------------------------------------------
    std::uint32_t numGpus = 4;
    std::uint32_t cusPerGpu = 64;
    std::uint32_t warpsPerCu = 16; ///< outstanding contexts per CU

    /**
     * Event-core shards (DESIGN.md section 10). 1 = serial execution.
     * N >= 2 partitions the devices across N event-queue shards (shard
     * 0 owns the host/driver) that run ahead independently within a
     * lookahead window derived from the minimum interconnect latency;
     * results and trace digests are bit-identical to --shards 1. The
     * harness clamps to numGpus + 1 and serializes runs whose features
     * require it (oracle, unplug plans, inval-suppression sabotage,
     * Trans-FW) with one warning naming every reason; the latency
     * scoreboard, interval sampler, and JSONL trace shard natively
     * (DESIGN.md section 11) and never serialize a run.
     */
    std::uint32_t shards = 1;

    // --- virtual memory -------------------------------------------
    std::uint32_t pageBits = 12;      ///< 4 KB pages; 21 => 2 MB
    std::uint64_t gpuMemPages = 1u << 20; ///< 4 GB of 4 KB frames

    // --- translation hardware (Table 2) ----------------------------
    TlbConfig l1Tlb{32, 32, 1};
    TlbConfig l2Tlb{512, 16, 10};
    GmmuConfig gmmu{};
    std::uint32_t l2MshrEntries = 64;

    // --- memory timing ---------------------------------------------
    Cycles localDramLatency = 200;  ///< local HBM access
    double localDramBytesPerCycle = 1000.0;

    // --- interconnect (Table 2) ------------------------------------
    LinkConfig interGpuLink{300.0, 250};  ///< NVLink-v2
    LinkConfig hostLink{32.0, 600};       ///< PCIe-v4

    // --- UVM driver -------------------------------------------------
    std::uint32_t faultBatchSize = 256;
    Cycles hostPerLevelLatency = 20;  ///< host PT walk is much faster
    Cycles hostFaultServiceLatency = 100; ///< driver software overhead
    std::uint32_t hostWalkers = 64;   ///< batch-of-256 fault processing
    std::uint32_t accessCounterThreshold = 256;
    MigrationPolicy migrationPolicy = MigrationPolicy::AccessCounter;

    // --- scheme under study -----------------------------------------
    InvalFilter invalFilter = InvalFilter::Broadcast;
    InvalApply invalApply = InvalApply::Immediate;
    IrmbConfig irmb{};
    VmCacheConfig vmCache{};
    TransFwConfig transFw{};
    std::uint32_t directoryBits = 11; ///< m in h(gpu)=gpu%m (bits 62-52)
    bool pageReplication = false;     ///< replicate read-shared pages

    // --- misc ---------------------------------------------------------
    Prepopulate prepopulate = Prepopulate::None;
    std::uint64_t seed = 42;
    /**
     * Record wall-clock dispatch throughput (hostSeconds /
     * eventsPerSec) in the results. Off by default: host timings vary
     * run to run, and CI diffs serialized results byte-for-byte.
     */
    bool hostStats = false;
    /**
     * Print a live status line to stderr roughly every progressSecs
     * wall-clock seconds (tick, events executed, dispatch rate, shard
     * windows/stalls). 0 disables. Pure observability: never touches
     * simulated state or results.
     */
    double progressSecs = 0.0;
    IntegrityConfig integrity{};
    TraceConfig trace{};
    LatencyConfig latency{};
    SamplerConfig sampler{};

    /** 4 KB or 2 MB page size in bytes. */
    std::uint64_t pageSize() const { return 1ull << pageBits; }

    /**
     * Collect every violated cross-field constraint. Empty means the
     * configuration is usable. Also emits (non-fatal) warnings for
     * suspicious-but-legal settings.
     */
    std::vector<std::string> check() const;

    /** @throws ConfigError listing all violations when check() fails. */
    void validate() const;

    /** Human-readable multi-line description (Table 2 style). */
    std::string describe() const;

    // --- named presets matching the paper's schemes -------------------
    static SystemConfig baseline();
    static SystemConfig onlyLazy();
    static SystemConfig onlyDirectory();
    static SystemConfig idyllFull();
    static SystemConfig idyllInMem();
    static SystemConfig zeroLatencyInval();

    /** Field-wise equality (sweep-registry contract tests). */
    bool operator==(const SystemConfig &) const = default;
};

} // namespace idyll

#endif // IDYLL_SIM_CONFIG_HH
