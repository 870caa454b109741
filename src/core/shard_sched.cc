#include "core/shard_sched.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace idyll
{

ShardScheduler::ShardScheduler(EventQueue &root, std::uint32_t shards,
                               std::uint32_t numGpus, Cycles lookahead)
    : _root(root), _shards(shards), _numGpus(numGpus),
      _lookahead(lookahead),
      _rendezvous(static_cast<std::ptrdiff_t>(shards))
{
    IDYLL_ASSERT(shards >= 2, "ShardScheduler needs >= 2 shards");
    IDYLL_ASSERT(shards <= numGpus + 1,
                 "more shards than devices: ", shards, " > ",
                 numGpus + 1);
    _extra.reserve(shards - 1);
    for (std::uint32_t s = 1; s < shards; ++s) {
        auto q = std::make_unique<EventQueue>();
        q->setShardLabel("shard " + std::to_string(s));
        _extra.push_back(std::move(q));
    }
    _outboxes.resize(static_cast<std::size_t>(shards) * shards);
    for (std::uint32_t s = 0; s < shards; ++s)
        _metrics.addChild(_stats.emplace_back(s));
    _prevExecuted.assign(shards, 0);
    _root.setShardLabel("shard 0");
    _root.setRouter(this);
}

ShardScheduler::~ShardScheduler()
{
    _root.setRouter(nullptr);
    _root.setShardLabel({});
}

std::uint32_t
ShardScheduler::shardOfNode(GpuId node) const
{
    if (node == kHostId)
        return 0;
    IDYLL_ASSERT(node < _numGpus, "unknown node ", node);
    return 1 + node % (_shards - 1);
}

EventQueue &
ShardScheduler::shardQueue(std::uint32_t shard)
{
    IDYLL_ASSERT(shard < _shards, "bad shard id ", shard);
    return shard == 0 ? _root : *_extra[shard - 1];
}

const EventQueue &
ShardScheduler::shardQueue(std::uint32_t shard) const
{
    IDYLL_ASSERT(shard < _shards, "bad shard id ", shard);
    return shard == 0 ? _root : *_extra[shard - 1];
}

std::uint64_t
ShardScheduler::shardExecuted(std::uint32_t shard) const
{
    return shardQueue(shard)._executed;
}

const ShardScheduler::ShardStats &
ShardScheduler::shardStats(std::uint32_t shard) const
{
    IDYLL_ASSERT(shard < _shards, "bad shard id ", shard);
    return _stats[shard];
}

void
ShardScheduler::addRendezvousHook(std::function<void()> hook)
{
    IDYLL_ASSERT(hook, "null rendezvous hook");
    _hooks.push_back(std::move(hook));
}

void
ShardScheduler::noteWindowStats()
{
    for (std::uint32_t s = 0; s < _shards; ++s) {
        const EventQueue &q = shardQueue(s);
        ShardStats &stats = _stats[s];
        stats.lastTick.reset();
        stats.lastTick.inc(q._now);
        stats.executed.reset();
        stats.executed.inc(q._executed);
        if (q._executed == _prevExecuted[s])
            stats.stallWindows.inc();
        _prevExecuted[s] = q._executed;
    }
}

void
ShardScheduler::deposit(std::uint32_t fromShard, std::uint32_t toShard,
                        Tick when, std::uint64_t key, EventFn fn)
{
    IDYLL_ASSERT(fromShard < _shards && toShard < _shards &&
                     fromShard != toShard,
                 "bad deposit route ", fromShard, " -> ", toShard);
    IDYLL_ASSERT(_inWindow, "cross-shard deposit outside a window");
    // The lookahead-horizon invariant: an arrival inside the current
    // window would mean another shard should already have seen it.
    IDYLL_ASSERT(when > _horizon, "cross-shard arrival at tick ", when,
                 " inside window ending at ", _horizon);
    _outboxes[static_cast<std::size_t>(fromShard) * _shards + toShard]
        .push_back(Deposit{when, key, std::move(fn)});
}

void
ShardScheduler::applyDeposits()
{
    // Application order is irrelevant for determinism: deliveries are
    // totally ordered by (tick, key), never by insertion sequence.
    for (auto &box : _outboxes) {
        if (box.empty())
            continue;
        const std::size_t idx = &box - _outboxes.data();
        const auto from = static_cast<std::uint32_t>(idx / _shards);
        const auto to = static_cast<std::uint32_t>(idx % _shards);
        EventQueue &target = shardQueue(to);
        for (auto &d : box)
            target.scheduleLocal(d.when, d.key, std::move(d.fn));
        _stats[from].depositsOut.inc(box.size());
        _stats[to].depositsIn.inc(box.size());
        box.clear();
    }
}

void
ShardScheduler::workerLoop(std::uint32_t shard)
{
    EventQueue &q = shardQueue(shard);
    for (;;) {
        _rendezvous.arrive_and_wait();
        if (_stop)
            return;
        {
            ShardScope scope(q, shard);
            q.runWindow(_horizon);
        }
        _rendezvous.arrive_and_wait();
    }
}

Tick
ShardScheduler::runSharded(Tick maxTick)
{
    _stop = false;
    _workers.reserve(_shards - 1);
    for (std::uint32_t s = 1; s < _shards; ++s)
        _workers.emplace_back(&ShardScheduler::workerLoop, this, s);

    const Tick entryNow = _root._now;
    for (;;) {
        // Keepalive chains keep every queue nonempty so windows keep
        // coming; termination is decided by real events alone. An
        // unbounded drain mirrors serial runLocal(): once no real
        // event is pending anywhere, cancel the keepalives and stop.
        // Bounded runs keep dispatching keepalives through maxTick
        // (also matching serial), and terminate when everything
        // pending lies beyond the bound.
        if (maxTick == kMaxTick) {
            std::size_t realPending = 0;
            for (std::uint32_t s = 0; s < _shards; ++s) {
                const EventQueue &q = shardQueue(s);
                realPending += q._livePending - q._keepalivePending;
            }
            if (realPending == 0) {
                for (std::uint32_t s = 0; s < _shards; ++s)
                    shardQueue(s).cancelKeepalives();
                break;
            }
        }
        Tick t = kMaxTick;
        for (std::uint32_t s = 0; s < _shards; ++s)
            t = std::min(t, shardQueue(s).nextEventTick());
        if (t == kMaxTick || t > maxTick)
            break;
        _horizon = (t > kMaxTick - _lookahead) ? kMaxTick
                                               : t + _lookahead;
        _horizon = std::min(_horizon, maxTick);
        _inWindow = true;
        _windows.inc();
        _rendezvous.arrive_and_wait();
        {
            ShardScope scope(_root, 0);
            _root.runWindow(_horizon);
        }
        _rendezvous.arrive_and_wait();
        _inWindow = false;
        applyDeposits();
        noteWindowStats();
        for (const auto &hook : _hooks)
            hook();
    }

    _stop = true;
    _rendezvous.arrive_and_wait();
    for (auto &w : _workers)
        w.join();
    _workers.clear();

    // Mirror serial clock semantics: a bounded run lands every shard
    // exactly on maxTick; an unbounded drain leaves the clock at the
    // last executed REAL event's tick, globally. (A shard whose final
    // window dispatched keepalive wakes past that tick snaps back --
    // it holds no live event, so none can observe the move; setClock
    // reclaims the cancelled keepalive wakes it still holds.)
    Tick final;
    if (maxTick != kMaxTick) {
        final = maxTick;
        for (std::uint32_t s = 0; s < _shards; ++s)
            final = std::max(final, shardQueue(s)._now);
    } else {
        final = entryNow;
        for (std::uint32_t s = 0; s < _shards; ++s)
            final = std::max(final, shardQueue(s)._lastRealTick);
    }
    for (std::uint32_t s = 0; s < _shards; ++s)
        shardQueue(s).setClock(final);
    return final;
}

} // namespace idyll
