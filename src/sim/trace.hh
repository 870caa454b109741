/**
 * @file
 * Structured, cycle-level event tracing.
 *
 * Components emit typed TraceEvent records (TLB probes, IRMB
 * insert/merge/drain, directory set/clear, page walks, migrations,
 * invalidation round trips, network sends) through a per-system
 * Tracer. The tracer timestamps each event with the simulated tick
 * and fans it out to sinks:
 *
 *  - JsonlTraceSink   one JSON object per line, for offline analysis
 *                     and the Chrome trace_event exporter
 *                     (tools/idyll_trace).
 *  - TraceDigestSink  per-category event counts plus an
 *                     order-insensitive hash; the canonical text is
 *                     what golden-trace regression tests pin.
 *  - CollectTraceSink in-memory vector, for unit and property tests.
 *
 * Cost model: tracing is zero-cost when compiled out
 * (-DIDYLL_TRACE_ENABLED=0) and one pointer + mask test per site when
 * compiled in but runtime-disabled (the default for benchmarks). All
 * emission goes through the IDYLL_TRACE macro so call sites never pay
 * for argument evaluation while disabled.
 *
 * Threading: a Tracer belongs to one MultiGpuSystem. Under serial
 * execution it is only touched from that system's event loop, so the
 * parallel suite runner needs no locking and per-run digests are
 * identical for any --jobs value. Under sharded execution (--shards,
 * DESIGN.md sections 10-11) every sink is shard-safe without locks:
 *
 *  - TraceDigestSink accumulates into per-shard lanes indexed by
 *    EventQueue::currentShard() and folds on read — counts add and
 *    hashes XOR, both order-insensitive, so the folded digest is
 *    bit-identical to a serial run's.
 *  - JsonlTraceSink (once enableSharding() is called) formats each
 *    event into its shard's line lane — single-writer, lock-free —
 *    and mergeWindow(), run on the main thread at every rendezvous,
 *    drains the lanes to the stream through an OrderedLanes merge in
 *    (tick, lane, FIFO) order; a tick that moves backwards panics.
 *    The merged file is deterministic for a given shard count, and
 *    its digest matches a serial run's. Without enableSharding() the
 *    sink streams directly and is only safe serial.
 */

#ifndef IDYLL_SIM_TRACE_HH
#define IDYLL_SIM_TRACE_HH

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/ordered_lanes.hh"
#include "sim/types.hh"

#ifndef IDYLL_TRACE_ENABLED
#define IDYLL_TRACE_ENABLED 1
#endif

namespace idyll
{

/** Event categories; each is one bit in the runtime filter mask. */
enum class TraceCategory : std::uint8_t
{
    Tlb,       ///< TLB hits, misses, fills, evictions, shootdowns
    Irmb,      ///< IRMB insert/merge/bypass/elide/evict/drain
    Directory, ///< in-PTE directory bit set/clear/target selection
    Walk,      ///< GMMU page-walk dispatch and completion
    Migration, ///< migration request -> transfer -> completion
    Inval,     ///< invalidation send/receive/ack/round-complete
    Fault,     ///< far faults and mapping install/drop
    Network,   ///< every interconnect message
};

constexpr std::uint32_t kNumTraceCategories = 8;

/** Bit for one category in a filter mask. */
constexpr std::uint32_t
traceBit(TraceCategory cat)
{
    return 1u << static_cast<std::uint32_t>(cat);
}

/** Mask with every category enabled. */
constexpr std::uint32_t kTraceAll = (1u << kNumTraceCategories) - 1;

/**
 * Sentinel CU id for CU-agnostic TLB events. The shared L2 TLB is not
 * owned by any CU, so its evictions are tagged with kNoCu rather than
 * whichever CU's fill happened to trigger them.
 */
constexpr std::uint64_t kNoCu = 0xFFFFFFFFull;

/** Typed event kinds. Each op belongs to exactly one category. */
enum class TraceOp : std::uint8_t
{
    // Tlb
    TlbHit,       ///< a = cu, b = level (1 or 2)
    TlbMiss,      ///< a = cu
    TlbFill,      ///< a = cu, b = pfn
    TlbEvict,     ///< vpn = evicted vpn, a = cu (kNoCu when the
                  ///< shared L2 evicts -- CU-agnostic), b = level,
                  ///< c = victim ever reused (the reuse-predictor
                  ///< training signal surfaced in the trace)
    TlbShootdown, ///< a = entries removed
    // Irmb
    IrmbInsert, ///< request buffered (fresh base)
    IrmbMerge,  ///< request merged into an existing base
    IrmbDup,    ///< offset already buffered
    IrmbHit,    ///< demand probe hit: walk bypassed
    IrmbElide,  ///< pending invalidation removed by a new mapping
    IrmbEvict,  ///< base-capacity eviction, a = batch size
    IrmbFlush,  ///< offset-capacity flush, a = batch size
    IrmbDrain,  ///< idle-walker drain, a = batch size
    // Directory
    DirSet,     ///< gpu's access bit set for vpn
    DirClear,   ///< all access bits cleared for vpn
    DirTargets, ///< a = target mask, b = target count
    // Walk
    WalkStart,    ///< a = WalkKind, b = queue wait cycles
    WalkDone,     ///< a = WalkKind, b = walk cycles, c = batch size
    MmuCacheHit,  ///< a = node level of the deepest valid pointer
    MmuCacheMiss, ///< no valid cached pointer for this walk
    MmuCacheStale, ///< a = stale entry's level, b = present-path stop
    // Migration
    MigRequest,  ///< gpu = requester
    MigStart,    ///< gpu = dest, a = old owner
    MigTransfer, ///< gpu = dest, a = wait cycles
    MigDone,     ///< gpu = dest, a = total cycles, b = new pfn
    // Inval
    InvalSend,      ///< gpu = target, a = round
    InvalRecv,      ///< a = round
    InvalAck,       ///< gpu = acker, a = round
    InvalRoundDone, ///< a = round
    InvalRetry,     ///< gpu = target, a = round
    // Fault
    FaultRaised,   ///< a = write
    FaultResolved, ///< a = resolve latency
    MapInstall,    ///< a = pfn, b = writable
    MapDrop,
    // Network
    NetSend, ///< gpu = src, a = dst, b = bytes, c = MsgClass
};

constexpr std::uint32_t kNumTraceOps =
    static_cast<std::uint32_t>(TraceOp::NetSend) + 1;

/** The category an op reports under. */
constexpr TraceCategory
traceCategoryOf(TraceOp op)
{
    switch (op) {
      case TraceOp::TlbHit:
      case TraceOp::TlbMiss:
      case TraceOp::TlbFill:
      case TraceOp::TlbEvict:
      case TraceOp::TlbShootdown:
        return TraceCategory::Tlb;
      case TraceOp::IrmbInsert:
      case TraceOp::IrmbMerge:
      case TraceOp::IrmbDup:
      case TraceOp::IrmbHit:
      case TraceOp::IrmbElide:
      case TraceOp::IrmbEvict:
      case TraceOp::IrmbFlush:
      case TraceOp::IrmbDrain:
        return TraceCategory::Irmb;
      case TraceOp::DirSet:
      case TraceOp::DirClear:
      case TraceOp::DirTargets:
        return TraceCategory::Directory;
      case TraceOp::WalkStart:
      case TraceOp::WalkDone:
      case TraceOp::MmuCacheHit:
      case TraceOp::MmuCacheMiss:
      case TraceOp::MmuCacheStale:
        return TraceCategory::Walk;
      case TraceOp::MigRequest:
      case TraceOp::MigStart:
      case TraceOp::MigTransfer:
      case TraceOp::MigDone:
        return TraceCategory::Migration;
      case TraceOp::InvalSend:
      case TraceOp::InvalRecv:
      case TraceOp::InvalAck:
      case TraceOp::InvalRoundDone:
      case TraceOp::InvalRetry:
        return TraceCategory::Inval;
      case TraceOp::FaultRaised:
      case TraceOp::FaultResolved:
      case TraceOp::MapInstall:
      case TraceOp::MapDrop:
        return TraceCategory::Fault;
      case TraceOp::NetSend:
        return TraceCategory::Network;
    }
    return TraceCategory::Network; // unreachable
}

/** Short lowercase category name ("tlb", "irmb", ...). */
const char *traceCategoryName(TraceCategory cat);

/** Op name as emitted in JSONL ("tlb.hit", "irmb.merge", ...). */
const char *traceOpName(TraceOp op);

/**
 * Parse a category filter: "all", or a comma-separated list of
 * category names ("tlb,irmb,inval"). Empty input means mask 0.
 * @return nullopt on an unknown category name.
 */
std::optional<std::uint32_t>
parseTraceCategories(const std::string &spec);

/** One traced event. Arguments a/b/c are op-specific (see TraceOp). */
struct TraceEvent
{
    Tick tick = 0;
    TraceOp op = TraceOp::NetSend;
    GpuId gpu = 0; ///< kHostId for driver/host-side events
    Vpn vpn = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::uint64_t c = 0;
};

/** Receives every event that passes the tracer's category filter. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void record(const TraceEvent &event) = 0;
    virtual void flush() {}
};

/**
 * Writes one compact JSON object per event, one per line:
 *   {"t":1234,"cat":"tlb","op":"tlb.hit","gpu":0,"vpn":262144,"a":3}
 * Zero-valued a/b/c are omitted. The stream is either borrowed
 * (tests) or an owned file.
 */
class JsonlTraceSink : public TraceSink
{
  public:
    /** Borrow @p os; the caller keeps it alive past the sink. */
    explicit JsonlTraceSink(std::ostream &os) : _os(&os) {}

    /** Open @p path for writing (fatal() on failure). */
    explicit JsonlTraceSink(const std::string &path);

    /**
     * Switch to per-shard buffering for a sharded run: record()
     * appends to the calling shard's line lane and the harness calls
     * mergeWindow() at every rendezvous (and flush() at the end) to
     * drain the lanes to the stream in deterministic (tick, lane,
     * FIFO) order. With @p shards == 1 the sink keeps streaming
     * directly — byte-identical to the pre-sharding behavior.
     */
    void enableSharding(std::uint32_t shards);

    /**
     * Drain every buffered line to the stream, merged by (tick, lane,
     * FIFO); panics if the merged tick moves backwards (a lane missed
     * a rendezvous). Main-thread only, while the shards are quiescent
     * (at a rendezvous or after run()). No-op when not sharded.
     */
    void mergeWindow();

    void record(const TraceEvent &event) override;
    void flush() override;

  private:
    /** One formatted line, held until the window merge. */
    struct Line
    {
        Tick tick;
        std::string text;
    };

    std::unique_ptr<std::ofstream> _file;
    std::ostream *_os = nullptr;
    /** Per-shard line lanes; none until enableSharding(>= 2). */
    OrderedLanes<Line, &Line::tick> _lanes;
};

/**
 * Canonical per-category digest: an event count and an
 * order-insensitive (XOR-accumulated) 64-bit hash per category, plus
 * the totals. Two runs with the same digest produced the same
 * multiset of (tick, op, gpu, vpn, a, b, c) tuples — the property the
 * golden-trace regression tests pin.
 */
class TraceDigestSink : public TraceSink
{
  public:
    TraceDigestSink();

    void record(const TraceEvent &event) override;

    std::uint64_t count(TraceCategory cat) const;
    std::uint64_t hash(TraceCategory cat) const;

    /** Events recorded for one op (finer than the category counts). */
    std::uint64_t opCount(TraceOp op) const;

    std::uint64_t totalCount() const;
    std::uint64_t totalHash() const;

    /**
     * Multi-line canonical form:
     *   trace-digest v1
     *   tlb count=123 hash=0123456789abcdef
     *   ...
     *   all count=456 hash=fedcba9876543210
     */
    std::string canonicalText() const;

    /** One-line form embedded in SimResults ("v1 tlb:123:... all:..."). */
    std::string canonicalLine() const;

  private:
    /**
     * One shard's slice of the digest accumulators. record() writes
     * only the calling shard's lane; every accessor folds the lanes
     * (counts add, hashes XOR — both order-insensitive), so the
     * folded digest of a sharded run is bit-identical to a serial
     * run's.
     */
    struct Lane
    {
        std::uint64_t counts[kNumTraceCategories] = {};
        std::uint64_t hashes[kNumTraceCategories] = {};
        std::uint64_t opCounts[kNumTraceOps] = {};
        std::uint64_t total = 0;
        std::uint64_t totalHash = 0;
    };

    Lane &lane();

    std::vector<Lane> _lanes;
};

/** Test sink: keeps every event in memory. */
class CollectTraceSink : public TraceSink
{
  public:
    void record(const TraceEvent &event) override
    {
        _events.push_back(event);
    }

    const std::vector<TraceEvent> &events() const { return _events; }

  private:
    std::vector<TraceEvent> _events;
};

/**
 * The per-system tracer: a runtime category mask and a fan-out list
 * of sinks. Components hold a Tracer* (null = tracing off) and emit
 * through the IDYLL_TRACE macro below.
 */
class Tracer
{
  public:
    /**
     * @param eq   the system's event queue (timestamps).
     * @param mask runtime category filter (kTraceAll for everything).
     */
    Tracer(const EventQueue &eq, std::uint32_t mask)
        : _eq(&eq), _mask(mask)
    {
    }

    bool enabled(TraceCategory cat) const
    {
        return (_mask & traceBit(cat)) != 0;
    }

    std::uint32_t mask() const { return _mask; }

    /** Register a sink; the caller keeps it alive past the tracer. */
    void addSink(TraceSink *sink) { _sinks.push_back(sink); }

    void
    emit(TraceOp op, GpuId gpu, Vpn vpn, std::uint64_t a = 0,
         std::uint64_t b = 0, std::uint64_t c = 0)
    {
        TraceEvent event{_eq->now(), op, gpu, vpn, a, b, c};
        for (TraceSink *sink : _sinks)
            sink->record(event);
    }

    void
    flush()
    {
        for (TraceSink *sink : _sinks)
            sink->flush();
    }

  private:
    const EventQueue *_eq;
    std::uint32_t _mask;
    std::vector<TraceSink *> _sinks;
};

/**
 * Emit one trace event iff tracing is compiled in, the component has
 * a tracer, and the op's category passes the runtime filter. The
 * value arguments are NOT evaluated unless all three hold.
 */
#if IDYLL_TRACE_ENABLED
#define IDYLL_TRACE(tracer, op, ...)                                        \
    do {                                                                    \
        ::idyll::Tracer *idyllTracer_ = (tracer);                           \
        if (idyllTracer_ &&                                                 \
            idyllTracer_->enabled(                                          \
                ::idyll::traceCategoryOf(::idyll::TraceOp::op))) {          \
            idyllTracer_->emit(::idyll::TraceOp::op, __VA_ARGS__);          \
        }                                                                   \
    } while (0)
#else
// Compiled out: the arguments stay inside an if (false) branch so they
// still type-check and count as used, but are never executed and the
// whole site folds away.
#define IDYLL_TRACE(tracer, op, ...)                                        \
    do {                                                                    \
        if (false) {                                                        \
            ::idyll::Tracer *idyllTracer_ = (tracer);                       \
            if (idyllTracer_) {                                             \
                idyllTracer_->emit(::idyll::TraceOp::op, __VA_ARGS__);      \
            }                                                               \
        }                                                                   \
    } while (0)
#endif

} // namespace idyll

#endif // IDYLL_SIM_TRACE_HH
