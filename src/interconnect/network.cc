#include "interconnect/network.hh"

#include <algorithm>
#include <cmath>
#include <optional>

#include "sim/integrity.hh"
#include "sim/logging.hh"

namespace idyll
{

namespace
{

/** Protocol messages eligible for fault injection. */
std::optional<FaultMsg>
faultClassOf(MsgClass cls)
{
    switch (cls) {
      case MsgClass::Invalidation:
        return FaultMsg::Inval;
      case MsgClass::InvalAck:
        return FaultMsg::Ack;
      case MsgClass::MigrationReq:
        return FaultMsg::MigReq;
      default:
        return std::nullopt;
    }
}

} // namespace

Network::Network(EventQueue &eq, const SystemConfig &cfg)
    : _eq(eq), _numGpus(cfg.numGpus)
{
    const std::size_t nodes = _numGpus + 1; // + host
    _links.resize(nodes * nodes);
    for (std::size_t src = 0; src < nodes; ++src) {
        for (std::size_t dst = 0; dst < nodes; ++dst) {
            Link &link = _links[src * nodes + dst];
            const bool host_leg = (src == _numGpus || dst == _numGpus);
            const LinkConfig &lc =
                host_leg ? cfg.hostLink : cfg.interGpuLink;
            link.bytesPerCycle = lc.bandwidthBytesPerCycle;
            link.latency = lc.latency;
        }
    }
    _unreachable.assign(nodes, 0);
    // One stat slice per possible shard (host shard + one per GPU).
    _stats.resize(nodes + 1);
    _inFlight.resize(nodes + 1);
}

std::size_t
Network::nodeIndex(GpuId id) const
{
    if (id == kHostId)
        return _numGpus;
    IDYLL_ASSERT(id < _numGpus, "unknown network node ", id);
    return id;
}

std::size_t
Network::linkIndex(GpuId src, GpuId dst) const
{
    return nodeIndex(src) * (_numGpus + 1) + nodeIndex(dst);
}

Network::Link &
Network::linkFor(GpuId src, GpuId dst)
{
    return _links[linkIndex(src, dst)];
}

std::size_t
Network::laneSelFor(GpuId src, GpuId dst, MsgClass cls) const
{
    // Host-adjacent links keep one lane (single writer, and PCIe
    // serialization semantics unchanged). GPU<->GPU links split bulk
    // page payloads — orchestrated by the host-side driver — onto
    // their own virtual channel so each lane has exactly one writing
    // shard.
    if (src == kHostId || dst == kHostId)
        return 0;
    return cls == MsgClass::PageData ? 1 : 0;
}

Cycles
Network::baseLatency(GpuId src, GpuId dst) const
{
    return _links[linkIndex(src, dst)].latency;
}

void
Network::markUnreachable(GpuId node)
{
    _unreachable[nodeIndex(node)] = 1;
}

void
Network::markReachable(GpuId node)
{
    _unreachable[nodeIndex(node)] = 0;
}

void
Network::foldStats()
{
    StatLane &canon = _stats[0];
    for (std::size_t s = 1; s < _stats.size(); ++s) {
        StatLane &lane = _stats[s];
        canon.totalBytes.inc(lane.totalBytes.value());
        canon.unreachableDrops.inc(lane.unreachableDrops.value());
        canon.queueDelay.merge(lane.queueDelay);
        for (std::uint32_t c = 0; c < kNumMsgClasses; ++c) {
            canon.classBytes[c].inc(lane.classBytes[c].value());
            canon.classMessages[c].inc(lane.classMessages[c].value());
        }
        lane = StatLane{};
    }
}

Network::Route
Network::route(GpuId src, GpuId dst, std::uint64_t bytes, MsgClass cls)
{
    IDYLL_ASSERT(src != dst, "loopback send from node ", src);

    StatLane &stats = statLane();
    Route r;

    // Fail fast on a dead peer: no link time, no delivery, no hung
    // sender. Checked before any accounting so a degraded system's
    // traffic stats describe traffic that actually moved.
    if (!reachable(dst) || !reachable(src)) {
        stats.unreachableDrops.inc();
        IDYLL_TRACE(_tracer, NetSend, src, 0, dst, 0,
                    static_cast<std::uint64_t>(cls));
        return r;
    }

    const std::size_t li = linkIndex(src, dst);
    Link &link = _links[li];
    const std::size_t laneSel = laneSelFor(src, dst, cls);
    Lane &lane = link.lanes[laneSel];

    if (const ShardRouter *router = _eq.router()) {
        // Single-writer tripwire: the shard advancing this lane's FIFO
        // cursor must be its owner (control: the source's shard; bulk:
        // the host shard that orchestrates page copies).
        const std::uint32_t owner =
            laneSel == 1 ? 0u : router->shardOfNode(src);
        IDYLL_ASSERT(EventQueue::currentShard() == owner,
                     "lane ", li * 2 + laneSel, " written by shard ",
                     EventQueue::currentShard(), ", owned by shard ",
                     owner);
    }

    const Tick now = _eq.now();
    const Tick start = std::max(now, lane.nextFree);
    const auto ser = static_cast<Cycles>(
        std::ceil(static_cast<double>(bytes) / link.bytesPerCycle));
    lane.nextFree = start + std::max<Cycles>(ser, 1);

    r.arrival = lane.nextFree + link.latency;

    // Delivery key: (lane id + 1, per-lane message counter). Lane
    // counters advance in their owner shard's execution order, which
    // is mode-independent, so keys — and with them same-tick arrival
    // order — are identical in serial and sharded runs. The +1 bias
    // keeps key 0 free for keepalive events (kKeepaliveEventKey),
    // which must sort before every delivery at a tick.
    const std::uint64_t laneId =
        static_cast<std::uint64_t>(li) * 2 + laneSel;
    r.key = ((laneId + 1) << 48) | lane.msgSeq++;

    stats.totalBytes.inc(bytes);
    stats.queueDelay.sample(static_cast<double>(start - now));
    const auto idx = static_cast<std::uint32_t>(cls);
    stats.classBytes[idx].inc(bytes);
    stats.classMessages[idx].inc();

    IDYLL_TRACE(_tracer, NetSend, src, 0, dst, bytes,
                static_cast<std::uint64_t>(cls));

    if (_injector) {
        if (auto fc = faultClassOf(cls)) {
            const FaultInjector::Decision d = _injector->decide(*fc, r.key);
            if (d.drop)
                return r; // link time consumed, message never delivered
            if (d.duplicate) {
                r.duplicate = true;
                r.dupArrival =
                    r.arrival + d.extraDelay + d.duplicateDelay;
                r.dupKey = ((laneId + 1) << 48) | lane.msgSeq++;
            }
            r.arrival += d.extraDelay;
        }
    }

    if (_trackInFlight) {
        // Dropped messages returned above. Increment on the sending
        // shard's delta lane, decrement on the executing shard's
        // (send()): each lane is single-writer, and the global count
        // is the wrapping sum of the (possibly negative) lanes.
        const bool host_leg = (src == kHostId || dst == kHostId);
        r.tracked = true;
        r.leg = host_leg ? 1 : 0;
        _inFlight[EventQueue::currentShard()].legs[r.leg] +=
            static_cast<std::int64_t>(bytes);
    }
    r.deliver = true;
    return r;
}

} // namespace idyll
