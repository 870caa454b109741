#include "sim/event_queue.hh"

#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "sim/logging.hh"

namespace idyll
{

constinit thread_local EventQueue *EventQueue::tlsCurrent = nullptr;
constinit thread_local std::uint32_t EventQueue::tlsShardId = 0;

namespace
{

std::string
schedulingErrorMessage(Tick now, Tick when)
{
    return "event scheduled in the past: tick " + std::to_string(when) +
           " is before current tick " + std::to_string(now);
}

} // namespace

SchedulingError::SchedulingError(Tick now, Tick when)
    : std::runtime_error(schedulingErrorMessage(now, when)), _now(now),
      _when(when)
{
}

void
EventQueue::checkNonNull(bool nonNull) const
{
    IDYLL_ASSERT(nonNull, "null event callback");
}

void
EventQueue::growArena()
{
    // Grow the arena by one slab; nodes are recycled forever after,
    // so a steady-state simulation stops allocating entirely.
    auto slab = std::make_unique<Node[]>(kSlabNodes);
    for (std::size_t i = 0; i < kSlabNodes; ++i) {
        slab[i].next = _freeList;
        _freeList = &slab[i];
    }
    _slabs.push_back(std::move(slab));
}

void
EventQueue::recycle(Node *node)
{
    node->fn.reset();
    node->scheduled = false;
    node->next = _freeList;
    _freeList = node;
}

bool
EventQueue::cancel(EventId id)
{
    // Route to the shard queue that created the handle; a stale handle
    // from a destroyed queue is the caller's bug (same lifetime rule as
    // before sharding: handles die with their queue).
    EventQueue *owner = id._owner ? id._owner : &active();
    return owner->cancelLocal(id);
}

bool
EventQueue::cancelLocal(EventId id)
{
    Node *node = static_cast<Node *>(id._node);
    if (!node || !node->scheduled || node->seq != id._seq ||
        node->isCancelled)
        return false;
    // The entry is reclaimed lazily when it surfaces; release the
    // captured state now so cancellation frees resources immediately.
    node->isCancelled = true;
    node->fn.reset();
    --_livePending;
    if (node->keepalive)
        --_keepalivePending;
    ++_cancelled;
    return true;
}

void
EventQueue::cancelKeepalives()
{
    if (_keepalivePending == 0)
        return;
    auto drop = [this](Node *node) {
        if (node->scheduled && node->keepalive && !node->isCancelled) {
            node->isCancelled = true;
            node->fn.reset();
            --_livePending;
            --_keepalivePending;
        }
    };
    for (std::uint64_t words = _wordBits; words; words &= words - 1) {
        const std::size_t word = std::countr_zero(words);
        for (std::uint64_t bits = _slotBits[word]; bits; bits &= bits - 1) {
            const std::size_t slot = word * 64 + std::countr_zero(bits);
            for (Node *node = _wheel[slot].head; node; node = node->next)
                drop(node);
        }
    }
    for (const HeapEntry &entry : _far)
        drop(entry.node);
}

void
EventQueue::sortBucket(std::size_t slot)
{
    Bucket &bucket = _wheel[slot];
    _sortNodes.clear();
    for (Node *node = bucket.head; node; node = node->next)
        _sortNodes.push_back(node);
    std::sort(_sortNodes.begin(), _sortNodes.end(),
              [](const Node *a, const Node *b) {
                  return a->key != b->key ? a->key < b->key
                                          : a->seq < b->seq;
              });
    for (std::size_t i = 0; i + 1 < _sortNodes.size(); ++i)
        _sortNodes[i]->next = _sortNodes[i + 1];
    _sortNodes.back()->next = nullptr;
    bucket.head = _sortNodes.front();
    bucket.tail = _sortNodes.back();
    _unsortedBits[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
}

std::size_t
EventQueue::nextSlotBeyond(std::size_t word)
{
    // Summary bits are cleared lazily: a set bit may name a word whose
    // slots have all emptied since. Later words first, then wrap.
    std::uint64_t later = _wordBits & ~((std::uint64_t{2} << word) - 1);
    for (;;) {
        const std::uint64_t candidates = later ? later : _wordBits;
        if (!candidates)
            return kWheelSpan;
        const std::size_t w = std::countr_zero(candidates);
        if (_slotBits[w])
            return w * 64 + std::countr_zero(_slotBits[w]);
        _wordBits &= ~(std::uint64_t{1} << w);
        later &= ~(std::uint64_t{1} << w);
    }
}

void
EventQueue::migrateFar()
{
    // The far heap pops in (when, key, seq) order and no wheel entry
    // shares a migrating event's tick yet, so every migrant lands in
    // its bucket's sorted position.
    while (!_far.empty() && _far.front().when - _now < kWheelSpan) {
        Node *node = _far.front().node;
        std::pop_heap(_far.begin(), _far.end(), Later{});
        _far.pop_back();
        pushWheel(node);
    }
}

void
EventQueue::setClock(Tick t)
{
    // top() reclaims the cancelled entries in front of the first live
    // event. Moving backward happens only at the end of a sharded
    // drain, when no live event is pending: the wheel is then empty,
    // so no slot can alias a tick of the new span.
    const Node *node = top();
    IDYLL_ASSERT(!node || (t >= _now && node->when >= t),
                 "clock moved from ", _now, " to ", t,
                 " past the pending event at ", node->when);
    _now = t;
    migrateFar();
}

void
EventQueue::configureWatchdog(std::uint64_t maxIdleEvents,
                              Tick maxIdleTicks,
                              std::function<void(std::ostream &)> dump)
{
    if (_router) {
        // Fan out to every shard: each shard polices its own dispatch
        // loop, so a no-progress trip names the stalled shard.
        for (std::uint32_t s = 0; s < _router->shardCount(); ++s) {
            EventQueue &q = _router->shardQueue(s);
            q._wdMaxIdleEvents = maxIdleEvents;
            q._wdMaxIdleTicks = maxIdleTicks;
            q._wdDump = dump;
            q._lastProgressEvent = q._executed;
            q._lastProgressTick = q._now;
        }
        return;
    }
    _wdMaxIdleEvents = maxIdleEvents;
    _wdMaxIdleTicks = maxIdleTicks;
    _wdDump = std::move(dump);
    _lastProgressEvent = _executed;
    _lastProgressTick = _now;
}

bool
EventQueue::step()
{
    IDYLL_ASSERT(!_router, "step() is unsupported on a sharded queue");
    Node *node = top();
    if (!node)
        return false;
    dispatch(node);
    return true;
}

void
EventQueue::dispatch(Node *node)
{
    unlinkTop(node);
    IDYLL_ASSERT(node->when >= _now, "time went backwards");
    if (node->when != _now) {
        _now = node->when;
        // Before the callback runs: it may schedule at a migrant's
        // tick, and the migrant must already hold its place.
        if (!_far.empty() && _far.front().when - _now < kWheelSpan)
            migrateFar();
    }
    ++_executed;
    --_livePending;
    if (node->keepalive)
        --_keepalivePending;
    else
        _lastRealTick = node->when;

    // Invoke the callback in place (no move out of the node) and
    // recycle afterwards. Clearing `scheduled` first makes a callback
    // cancelling its own handle a safe no-op; a nested schedule cannot
    // claim this node because it is not on the free list yet.
    node->scheduled = false;
    node->fn();
    recycle(node);

    if (_wdMaxIdleEvents || _wdMaxIdleTicks) {
        const bool eventsExceeded =
            _wdMaxIdleEvents &&
            _executed - _lastProgressEvent > _wdMaxIdleEvents;
        const bool ticksExceeded =
            _wdMaxIdleTicks && _now - _lastProgressTick > _wdMaxIdleTicks;
        if (eventsExceeded || ticksExceeded)
            watchdogTrip();
    }

    if (_progressHook && (_executed & 0xFFFF) == 0)
        _progressHook();
}

void
EventQueue::watchdogTrip()
{
    std::ostream &os = std::cerr;
    const std::string who =
        _shardLabel.empty() ? std::string("watchdog")
                            : "watchdog[" + _shardLabel + "]";
    os << who << ": no simulation progress for "
       << (_executed - _lastProgressEvent) << " events / "
       << (_now - _lastProgressTick) << " ticks (limits: "
       << _wdMaxIdleEvents << " events, " << _wdMaxIdleTicks
       << " ticks)\n";
    os << who << ": tick " << _now << ", " << _executed
       << " events executed, " << _livePending << " pending\n";

    // Drain (destructively -- we are exiting) up to 32 pending events
    // so the report shows what the simulation was waiting on.
    constexpr std::size_t kMaxDumped = 32;
    std::size_t dumped = 0;
    while (dumped < kMaxDumped) {
        Node *node = top();
        if (!node)
            break;
        os << who << ":   pending event tick=" << node->when
           << " seq=" << node->seq << "\n";
        unlinkTop(node);
        --_livePending;
        recycle(node);
        ++dumped;
    }
    if (_livePending > 0)
        os << who << ":   ... " << _livePending << " more\n";

    if (_wdDump)
        _wdDump(os);
    os.flush();
    std::exit(kWatchdogExitCode);
}

Tick
EventQueue::runLocal(Tick maxTick)
{
    while (Node *node = top()) {
        if (node->when > maxTick)
            break;
        // An unbounded drain ends with the last real event: once only
        // keepalive wakes remain, cancel them so the clock stays on
        // the last real tick (bounded runs keep dispatching keepalives
        // through the horizon -- identical to what a sharded run's
        // windows do).
        if (maxTick == kMaxTick && _keepalivePending > 0 &&
            _livePending == _keepalivePending) {
            cancelKeepalives();
            top(); // reclaim the cancelled entries in front
            break;
        }
        dispatch(node);
    }
    // With an explicit horizon the clock lands exactly on it, so
    // bounded callers (and anything they schedule next) see monotonic,
    // gap-free time; an unbounded drain keeps the last event's tick.
    if (maxTick != kMaxTick && _now < maxTick)
        setClock(maxTick);
    return _now;
}

} // namespace idyll
