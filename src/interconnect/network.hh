/**
 * @file
 * Bandwidth/latency interconnect model.
 *
 * Nodes are the GPUs (ids 0..numGpus-1) and the host CPU (kHostId).
 * GPU<->GPU traffic uses per-directed-pair NVLink-style links; every
 * GPU<->host path uses a PCIe-style link. Each directed link is a
 * FIFO: a message occupies the link for bytes/bandwidth cycles and
 * then propagates for the fixed latency, so bulk transfers (page
 * migrations) serialize behind each other while small control
 * messages queue realistically.
 *
 * Virtual channels / shard lanes: each directed GPU<->GPU link is
 * split into a control lane and a bulk lane (PageData), modeling
 * NVLink virtual channels. Control traffic on a link originates at the
 * source GPU; bulk page copies are orchestrated by the host-side
 * driver. Under sharded execution (DESIGN.md section 10) that makes
 * every lane single-writer: exactly one shard ever advances its FIFO
 * cursor, so no lock is needed and lane state stays deterministic.
 * Host-adjacent links keep a single lane (one writer already) so PCIe
 * serialization behavior is unchanged.
 *
 * Every message draws a 64-bit delivery key ((lane id + 1) << 48 |
 * per-lane message counter) used by the event queue to totally order
 * same-tick arrivals identically in serial and sharded runs. The +1
 * bias reserves key 0 for keepalive events (kKeepaliveEventKey).
 */

#ifndef IDYLL_INTERCONNECT_NETWORK_HH
#define IDYLL_INTERCONNECT_NETWORK_HH

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace idyll
{

class FaultInjector;

/** Traffic classes, for accounting only. */
enum class MsgClass : std::uint8_t
{
    FarFault,      ///< GPU -> host fault notification
    MappingReply,  ///< host -> GPU new translation
    Invalidation,  ///< host -> GPU PTE invalidation request
    InvalAck,      ///< GPU -> host invalidation acknowledgement
    MigrationReq,  ///< GPU -> host migration request
    PageData,      ///< bulk page payload
    RemoteData,    ///< cacheline-granularity remote access
    Control,       ///< everything else
};

constexpr std::uint32_t kNumMsgClasses = 8;

/** The system interconnect. */
class Network
{
  public:
    /**
     * @param eq    simulation event queue.
     * @param cfg   link parameters (interGpuLink, hostLink).
     */
    Network(EventQueue &eq, const SystemConfig &cfg);

    /**
     * Send @p bytes from @p src to @p dst; @p onArrival runs when the
     * last byte lands at the destination. Sends to an unreachable
     * (hot-unplugged) node fail fast: the message is counted in
     * unreachableDrops(), consumes no link time, and @p onArrival is
     * destroyed without running — the sender must not rely on
     * delivery for its own liveness (the driver's retry/abort paths
     * provide that). The arrival callback executes on the shard
     * owning @p dst. It must be copyable (the fault injector may
     * deliver a message twice) and must not hold an EventFn: the
     * network wraps the concrete callable before erasing it.
     */
    template <typename F>
    void
    send(GpuId src, GpuId dst, std::uint64_t bytes, MsgClass cls,
         F &&onArrival)
    {
        send(src, dst, bytes, cls, dst, std::forward<F>(onArrival));
    }

    /**
     * As above, but @p onArrival executes on the shard owning
     * @p execNode instead of the destination's. The driver uses this
     * for bulk-transfer completions (deliverReplica, finishMigration):
     * the payload lands at a GPU, but the completion handler mutates
     * host-side driver state.
     */
    template <typename F>
    void
    send(GpuId src, GpuId dst, std::uint64_t bytes, MsgClass cls,
         GpuId execNode, F &&onArrival)
    {
        static_assert(std::is_copy_constructible_v<std::decay_t<F>>,
                      "arrival callbacks must be copyable");
        const Route r = route(src, dst, bytes, cls);
        if (!r.deliver)
            return;
        // Injector-made duplicates are deliberately not wrapped, so
        // each send decrements the in-flight count exactly once.
        if (r.duplicate)
            _eq.scheduleDeliveryAt(execNode, r.dupArrival, r.dupKey,
                                   EventFn(onArrival));
        if (!r.tracked) {
            _eq.scheduleDeliveryAt(execNode, r.arrival, r.key,
                                   std::forward<F>(onArrival));
            return;
        }
        // Decrement on the executing shard's delta lane (route()
        // incremented the sending shard's).
        _eq.scheduleDeliveryAt(
            execNode, r.arrival, r.key,
            [this, leg = r.leg, bytes,
             fn = std::forward<F>(onArrival)]() mutable {
                _inFlight[EventQueue::currentShard()].legs[leg] -=
                    static_cast<std::int64_t>(bytes);
                fn();
            });
    }

    /**
     * Mark @p node unreachable (hot-unplugged). Messages already on
     * the wire still arrive — the receiver is responsible for
     * ignoring them — but every later send to @p node is dropped at
     * the source, so protocol code never waits on a dead peer.
     */
    void markUnreachable(GpuId node);

    /** Re-attach @p node; sends to it are delivered again. */
    void markReachable(GpuId node);

    /** False when @p node is currently unplugged. */
    bool reachable(GpuId node) const
    {
        return _unreachable[nodeIndex(node)] == 0;
    }

    /** Sends dropped at the source because the peer was unplugged. */
    std::uint64_t unreachableDrops() const
    {
        return _stats[0].unreachableDrops.value();
    }

    /** One-way latency of the src->dst link (no queuing). */
    Cycles baseLatency(GpuId src, GpuId dst) const;

    /**
     * Attach the fault injector; protocol messages (invalidations,
     * acks, migration requests) are then subject to its plan. Pass
     * nullptr to detach.
     */
    void setFaultInjector(FaultInjector *injector)
    {
        _injector = injector;
    }

    /**
     * Aggregate statistics per traffic class. Canonical (lane-0)
     * objects; after a sharded run they are complete only once
     * foldStats() ran (System::finish does).
     */
    const Counter &classBytes(MsgClass cls) const
    {
        return _stats[0].classBytes[static_cast<std::uint32_t>(cls)];
    }

    const Counter &classMessages(MsgClass cls) const
    {
        return _stats[0].classMessages[static_cast<std::uint32_t>(cls)];
    }

    /** Total bytes moved across all links. */
    std::uint64_t totalBytes() const
    {
        return _stats[0].totalBytes.value();
    }

    /** Aggregate queuing delay across all links. */
    const AvgStat &queueDelay() const { return _stats[0].queueDelay; }

    /**
     * Fold per-shard stat lanes into the canonical lane 0. Call once
     * the queue is quiescent (end of run); serial runs write lane 0
     * directly, so folding is a no-op there. Idempotent: folded lanes
     * are cleared.
     */
    void foldStats();

    /** Attach the system tracer; every send emits a net event. */
    void setTracer(Tracer *tracer) { _tracer = tracer; }

    /**
     * Enable in-flight byte accounting (interval sampler). Off by
     * default; the extra completion wrapper is only paid when on.
     * Shard-safe: each shard tracks a signed delta lane (sends
     * increment on the source shard, arrivals decrement on the
     * executing shard), so no lane is ever written by two threads.
     */
    void setOccupancyTracking(bool on) { _trackInFlight = on; }

    /**
     * The calling shard's slice of the in-flight count, as a wrapped
     * unsigned word. A shard that saw more arrivals than sends reads
     * as a huge value; summing every shard's slice with wraparound
     * yields the exact (nonnegative) total, which is how the interval
     * sampler's summed channels reassemble the global series.
     */
    std::uint64_t
    inFlightShardSlice(bool hostLeg) const
    {
        const std::uint32_t s = EventQueue::currentShard();
        const InFlightLane &lane =
            _inFlight[s < _inFlight.size() ? s : 0];
        return static_cast<std::uint64_t>(lane.legs[hostLeg ? 1 : 0]);
    }

  private:
    /** Where and when send() delivers one message. */
    struct Route
    {
        bool deliver = false;   ///< false: dropped at the source or lost
        bool duplicate = false; ///< the fault injector delivers it twice
        bool tracked = false;   ///< counted in the in-flight bytes
        std::size_t leg = 0;    ///< in-flight leg: 0 NVLink, 1 PCIe
        Tick arrival = 0, dupArrival = 0;
        std::uint64_t key = 0, dupKey = 0;
    };

    /**
     * Everything send() does except scheduling: reachability, link
     * FIFO time, delivery keys, traffic stats, tracing, fault
     * injection, and the in-flight increment.
     */
    Route route(GpuId src, GpuId dst, std::uint64_t bytes, MsgClass cls);

    /**
     * One virtual channel of a directed link: its FIFO cursor and its
     * delivery-key counter. Single-writer under sharding.
     */
    struct Lane
    {
        Tick nextFree = 0;
        std::uint64_t msgSeq = 0;
    };

    struct Link
    {
        double bytesPerCycle;
        Cycles latency;
        Lane lanes[2]; ///< [0]=control, [1]=bulk (GPU<->GPU only)
    };

    /** One shard's slice of the traffic statistics. */
    struct StatLane
    {
        Counter totalBytes;
        AvgStat queueDelay;
        Counter unreachableDrops;
        Counter classBytes[kNumMsgClasses];
        Counter classMessages[kNumMsgClasses];
    };

    Link &linkFor(GpuId src, GpuId dst);
    std::size_t linkIndex(GpuId src, GpuId dst) const;
    std::size_t nodeIndex(GpuId id) const;

    /** Lane index within the link for this message. */
    std::size_t laneSelFor(GpuId src, GpuId dst, MsgClass cls) const;

    /** The calling shard's stat slice. */
    StatLane &
    statLane()
    {
        const std::uint32_t s = EventQueue::currentShard();
        return _stats[s < _stats.size() ? s : 0];
    }

    EventQueue &_eq;
    std::uint32_t _numGpus;
    FaultInjector *_injector = nullptr;
    Tracer *_tracer = nullptr;
    // Directed links in a (numGpus+1)^2 grid; host is the last node.
    std::vector<Link> _links;

    /** One shard's signed contribution to the in-flight byte count. */
    struct InFlightLane
    {
        std::int64_t legs[2] = {0, 0}; ///< [0]=NVLink, [1]=PCIe
    };

    bool _trackInFlight = false;
    /** Per-shard delta lanes; see inFlightShardSlice(). */
    std::vector<InFlightLane> _inFlight;

    /** Nonzero per unplugged node (avoids 64-node mask overflow). */
    std::vector<std::uint8_t> _unreachable;

    /** Per-shard stat slices; [0] is canonical after foldStats(). */
    std::vector<StatLane> _stats;
};

} // namespace idyll

#endif // IDYLL_INTERCONNECT_NETWORK_HH
