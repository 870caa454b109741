/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A global-ordered queue of (tick, key, sequence, callback) entries.
 * Events scheduled for the same tick execute in (key, scheduling)
 * order, which keeps simulations deterministic for a fixed seed and
 * configuration.
 *
 * Hot-path design (the walker-queue and event-dispatch paths dominate
 * simulator wall-clock time, see DESIGN.md "Event core"):
 *
 *  - Callbacks are stored in InlineEvent, a type-erased move-only
 *    callable with a fixed inline buffer sized for the largest capture
 *    used by a scheduling site (gpu.cc / gmmu.cc / uvm_driver.cc /
 *    network.cc). Scheduling a lambda never heap-allocates; dispatch
 *    is one indirect call through a static ops table (no virtual
 *    dispatch, no std::function).
 *  - Event nodes live in a slab arena with an intrusive free list.
 *    Executed and cancelled nodes are recycled, so a steady-state
 *    simulation performs zero allocations per event.
 *  - Pending events sit in a timing wheel: one bucket per tick over
 *    the next kWheelSpan ticks, each an intrusive list threaded
 *    through the pooled nodes and kept in (key, seq) order. Ordinary
 *    events append at the tail in O(1); keepalives and deliveries
 *    walk in past the same-tick deliveries that sort before them. A
 *    two-level occupancy bitmap finds the next non-empty tick with
 *    count-trailing-zeros steps; the run loops hand the node found
 *    straight to dispatch, so each dispatched event costs one scan.
 *    Buckets own no storage: the wheel adds a fixed array of
 *    head/tail pointers per queue, and nodes reuse their free-list
 *    link as the bucket link.
 *  - Events beyond the wheel's span wait in a binary heap of 32-byte
 *    (tick, key, seq, node*) records. They move into the wheel as the
 *    clock comes within one span of them, before anything else can
 *    be scheduled at their tick, so the wheel and the heap never hold
 *    the same tick and execution order stays exactly (tick, key, seq).
 *
 * Sharded execution (DESIGN.md section 10): a run may be partitioned
 * into one EventQueue shard per device group. The System's root queue
 * then carries a ShardRouter, and every component-facing method
 * (now/schedule/scheduleAt/noteProgress) routes through a thread-local
 * "current shard" pointer, so component code is oblivious to sharding.
 * Cross-shard interaction flows exclusively through *deliveries*:
 * events carrying an explicit 64-bit ordering key (assigned by the
 * interconnect from single-writer per-lane message counters). At any
 * tick, deliveries execute before ordinary events, ordered by key;
 * ordinary events keep pure scheduling order. Because the same
 * comparator runs in serial mode, the execution order is a function of
 * (tick, key, creation order per shard) only -- never of which thread
 * ran what when -- which is what makes sharded runs bit-identical to
 * serial ones.
 *
 * Keepalive events (DESIGN.md section 11): observation probes (the
 * interval sampler) ride *keepalive* events scheduled with the
 * reserved key 0, which sorts before every delivery and ordinary
 * event at a tick -- a keepalive firing at tick t therefore observes
 * exactly the state left by all events with tick < t, in serial and
 * sharded runs alike. Keepalives are excluded from pending()/empty()
 * and never gate termination: an unbounded drain stops after the last
 * real event and cancels the remaining keepalive chain, so a sampler
 * can keep every shard's queue nonempty (which keeps rendezvous
 * windows coming) without ever changing when a run ends. Keepalive
 * callbacks must not schedule ordinary events or mutate simulation
 * state.
 */

#ifndef IDYLL_SIM_EVENT_QUEUE_HH
#define IDYLL_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace idyll
{

/**
 * Callback type used by components to hand completion continuations to
 * each other (Waiter::done, WalkRequest::done, Network::send's
 * onArrival, ...). The event queue itself does NOT store these: any
 * callable handed to schedule()/scheduleAt() is captured directly in
 * an InlineEvent, so passing a lambda avoids the std::function
 * round trip entirely.
 */
using EventFn = std::function<void()>;

/**
 * Raised by EventQueue::scheduleAt when a callback targets a tick that
 * has already passed. Carries both ticks so callers (and tests) can
 * report the exact offense instead of dying on an assertion.
 */
class SchedulingError : public std::runtime_error
{
  public:
    SchedulingError(Tick now, Tick when);

    /** Simulated time when the bad schedule was attempted. */
    Tick now() const { return _now; }

    /** The past tick the caller asked for. */
    Tick when() const { return _when; }

  private:
    Tick _now;
    Tick _when;
};

/**
 * Process exit code used when the no-progress watchdog trips, distinct
 * from fatal() (1) and CLI errors (2) so CI can tell a hang from a
 * crash.
 */
constexpr int kWatchdogExitCode = 86;

/**
 * Ordering key carried by ordinary (non-delivery) events. MAX sorts
 * after every real delivery key, so same-tick deliveries always run
 * first; ordinary events keep pure scheduling order among themselves.
 */
constexpr std::uint64_t kNormalEventKey =
    std::numeric_limits<std::uint64_t>::max();

/**
 * Ordering key reserved for keepalive (observation) events. Zero sorts
 * before every delivery key the interconnect can mint (lane ids are
 * biased by one, so real delivery keys start at 1 << 48), which pins a
 * keepalive at tick t to run before anything else at t.
 */
constexpr std::uint64_t kKeepaliveEventKey = 0;

/**
 * Type-erased move-only nullary callable with inline storage.
 *
 * The inline capacity is sized for the largest scheduling-site capture
 * in the simulator (the GMMU walker-completion lambda: a `this`
 * pointer, a moved WalkRequest incl. its batch vector and completion
 * std::function, a WalkResult, and two trace words -- ~160 bytes).
 * Callables that fit are constructed in place; dispatch is a single
 * indirect call through a per-type static ops table. Oversized
 * callables fall back to one heap allocation so the type stays total,
 * but no current scheduling site takes that path (asserted by the
 * pool-recycling tests).
 */
class InlineEvent
{
  public:
    /** Inline buffer size; covers every scheduling site's capture. */
    static constexpr std::size_t kInlineCapacity = 192;

    InlineEvent() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineEvent>>>
    InlineEvent(F &&fn) // NOLINT: implicit by design, mirrors function
    {
        emplace(std::forward<F>(fn));
    }

    /**
     * Bind a callable in place (the event queue uses this to construct
     * callbacks directly inside pooled nodes, skipping every move).
     * Must only be called on an empty InlineEvent.
     */
    template <typename F>
    void
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, Fn &>,
                      "event callback must be callable as void()");
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(_storage))
                Fn(std::forward<F>(fn));
            _ops = &kInlineOps<Fn>;
        } else {
            ::new (static_cast<void *>(_storage))
                Fn *(new Fn(std::forward<F>(fn)));
            _ops = &kHeapOps<Fn>;
        }
    }

    InlineEvent(const InlineEvent &) = delete;
    InlineEvent &operator=(const InlineEvent &) = delete;

    InlineEvent(InlineEvent &&other) noexcept { moveFrom(other); }

    InlineEvent &
    operator=(InlineEvent &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    ~InlineEvent() { reset(); }

    /** Destroy the bound callable (no-op when empty). */
    void
    reset()
    {
        if (_ops) {
            if (_ops->destroy)
                _ops->destroy(_storage);
            _ops = nullptr;
        }
    }

    /** True when a callable is bound. */
    explicit operator bool() const { return _ops != nullptr; }

    /** Invoke the bound callable (undefined when empty). */
    void operator()() { _ops->invoke(_storage); }

    /** True when the bound callable lives in the inline buffer. */
    bool inlineStored() const { return _ops && _ops->inlineStored; }

    /** Whether a callable of type Fn would be stored inline. */
    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineCapacity &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

  private:
    /** Per-type static dispatch table (no virtual calls). */
    struct Ops
    {
        void (*invoke)(void *);
        void (*relocate)(void *dst, void *src) noexcept;
        /** Null for trivially destructible inline callables. */
        void (*destroy)(void *) noexcept;
        bool inlineStored;
    };

    template <typename Fn>
    struct InlineModel
    {
        static void
        invoke(void *p)
        {
            (*static_cast<Fn *>(p))();
        }

        static void
        relocate(void *dst, void *src) noexcept
        {
            ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
            static_cast<Fn *>(src)->~Fn();
        }

        static void
        destroy(void *p) noexcept
        {
            static_cast<Fn *>(p)->~Fn();
        }
    };

    template <typename Fn>
    struct HeapModel
    {
        static Fn *&slot(void *p) { return *static_cast<Fn **>(p); }

        static void invoke(void *p) { (*slot(p))(); }

        static void
        relocate(void *dst, void *src) noexcept
        {
            ::new (dst) Fn *(slot(src));
        }

        static void
        destroy(void *p) noexcept
        {
            delete slot(p);
        }
    };

    template <typename Fn>
    static constexpr Ops kInlineOps{
        &InlineModel<Fn>::invoke, &InlineModel<Fn>::relocate,
        std::is_trivially_destructible_v<Fn> ? nullptr
                                             : &InlineModel<Fn>::destroy,
        true};

    template <typename Fn>
    static constexpr Ops kHeapOps{&HeapModel<Fn>::invoke,
                                  &HeapModel<Fn>::relocate,
                                  &HeapModel<Fn>::destroy, false};

    void
    moveFrom(InlineEvent &other) noexcept
    {
        _ops = other._ops;
        if (_ops)
            _ops->relocate(_storage, other._storage);
        other._ops = nullptr;
    }

    const Ops *_ops = nullptr;
    alignas(std::max_align_t) std::byte _storage[kInlineCapacity];
};

class EventQueue;

/**
 * Conservative-lookahead shard scheduler interface, implemented by
 * core/shard_sched.hh. Declared here (not in src/core) so the event
 * queue can route through it without a sim -> core dependency.
 */
class ShardRouter
{
  public:
    virtual ~ShardRouter() = default;

    /** Shard owning the simulation objects homed on @p node. */
    virtual std::uint32_t shardOfNode(GpuId node) const = 0;

    /** Number of shards (>= 2 when a router is installed). */
    virtual std::uint32_t shardCount() const = 0;

    /** Shard @p shard's event queue (0 == the System's root queue). */
    virtual EventQueue &shardQueue(std::uint32_t shard) = 0;
    virtual const EventQueue &shardQueue(std::uint32_t shard) const = 0;

    /** Conservative window length L (min cross-shard link latency). */
    virtual Cycles lookahead() const = 0;

    /**
     * Queue a cross-shard delivery into @p fromShard's outbox; the
     * rendezvous barrier moves it onto @p toShard before any window
     * that could reach @p when. Single-producer per (from, to) pair.
     */
    virtual void deposit(std::uint32_t fromShard, std::uint32_t toShard,
                         Tick when, std::uint64_t key, EventFn fn) = 0;

    /** Run the sharded simulation up to and including @p maxTick. */
    virtual Tick runSharded(Tick maxTick) = 0;
};

/**
 * The simulation event queue and clock.
 *
 * Components capture a reference to the queue and schedule callbacks at
 * relative delays (schedule) or absolute ticks (scheduleAt); the
 * top-level driver calls run() to drain the queue or runUntil() to
 * advance to a bounded horizon. schedule()/scheduleAt() return an
 * EventId that cancel() accepts to deschedule a pending event.
 *
 * When a ShardRouter is installed on the root queue, every component
 * entry point transparently operates on the calling thread's current
 * shard queue (see ShardScope); component code needs no changes to run
 * sharded.
 */
class EventQueue
{
  public:
    /**
     * Handle to one scheduled event, for cancel(). Default-constructed
     * handles are inert. A handle is valid until its event executes,
     * is cancelled, or the queue is destroyed; cancelling a stale
     * handle is a safe no-op. The handle remembers which shard queue
     * created it, so cancelling through the root queue works from any
     * shard.
     */
    class EventId
    {
      public:
        EventId() = default;

      private:
        friend class EventQueue;
        EventId(std::uint64_t seq, void *node, EventQueue *owner)
            : _seq(seq), _node(node), _owner(owner)
        {
        }

        std::uint64_t _seq = 0;
        void *_node = nullptr;
        EventQueue *_owner = nullptr;
    };

    /**
     * Ticks covered by the timing wheel: [now, now + kWheelSpan).
     * Scheduling delays in the simulator are almost all below 4096
     * cycles; events further out wait in the far heap.
     */
    static constexpr Tick kWheelSpan = 4096;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time (of the calling thread's shard). */
    Tick now() const { return activeC()._now; }

    /**
     * Schedule a callback @p delay cycles in the future.
     * @param delay cycles from now (0 = later this tick).
     * @param fn    callback to run (any void() callable; passing a
     *              lambda directly avoids std::function entirely).
     * @return handle accepted by cancel().
     */
    template <typename F>
    EventId
    schedule(Cycles delay, F &&fn)
    {
        EventQueue &q = active();
        return q.scheduleLocal(q._now + delay, kNormalEventKey,
                               std::forward<F>(fn));
    }

    /**
     * Schedule a callback at an absolute tick.
     * @throws SchedulingError if @p when is before now().
     * @return handle accepted by cancel().
     */
    template <typename F>
    EventId
    scheduleAt(Tick when, F &&fn)
    {
        return active().scheduleLocal(when, kNormalEventKey,
                                      std::forward<F>(fn));
    }

    /**
     * Schedule a *delivery*: an event with an explicit ordering key
     * (interconnect message arrivals). Same-tick deliveries execute
     * before ordinary events, ordered by key, in serial and sharded
     * runs alike -- the mechanism behind shard bit-identity. Keys must
     * be unique per (tick, queue); the Network's per-lane message
     * counters guarantee that.
     */
    template <typename F>
    EventId
    scheduleDelivery(Tick when, std::uint64_t key, F &&fn)
    {
        return active().scheduleLocal(when, key, std::forward<F>(fn));
    }

    /**
     * Schedule a delivery to execute on the shard owning @p execNode.
     * Serial runs (no router) and same-shard sends degrade to a local
     * scheduleDelivery(); true cross-shard sends are deposited into
     * the current shard's outbox and moved onto the target shard at
     * the next rendezvous barrier (always before the target's clock
     * could reach @p when -- see the lookahead-horizon invariant in
     * core/shard_sched.hh).
     */
    void
    scheduleDeliveryAt(GpuId execNode, Tick when, std::uint64_t key,
                       EventFn fn)
    {
        if (!_router) {
            scheduleLocal(when, key, std::move(fn));
            return;
        }
        const std::uint32_t cur = currentShard();
        const std::uint32_t dst = _router->shardOfNode(execNode);
        if (dst == cur) {
            active().scheduleLocal(when, key, std::move(fn));
            return;
        }
        _router->deposit(cur, dst, when, key, std::move(fn));
    }

    /**
     * Schedule a keepalive event @p delay cycles in the future on the
     * calling thread's shard queue. Keepalives carry the reserved
     * key 0 (they run before everything else at their tick), are
     * excluded from pending()/empty(), and are cancelled automatically
     * when a run drains its last real event -- so a self-rescheduling
     * keepalive chain never changes when a run terminates. The
     * callback must only observe state (see the header comment).
     */
    template <typename F>
    EventId
    scheduleKeepalive(Cycles delay, F &&fn)
    {
        EventQueue &q = active();
        EventId id = q.scheduleLocal(q._now + delay, kKeepaliveEventKey,
                                     std::forward<F>(fn));
        static_cast<Node *>(id._node)->keepalive = true;
        ++q._keepalivePending;
        return id;
    }

    /**
     * Deschedule a pending event. The node is reclaimed lazily when
     * it surfaces at the front of the queue; the callback (and
     * everything it captured) is destroyed immediately.
     * @return true if the event was pending and is now cancelled;
     *         false for stale handles (already executed, already
     *         cancelled, or default-constructed).
     */
    bool cancel(EventId id);

    /**
     * Number of pending (scheduled, not cancelled) real events.
     * Keepalive observation events are excluded: they follow a run,
     * they never drive one, so drain loops keyed on pending()/empty()
     * terminate exactly as if no sampler were attached.
     */
    std::size_t
    pending() const
    {
        if (!_router)
            return _livePending - _keepalivePending;
        std::size_t sum = 0;
        for (std::uint32_t s = 0; s < _router->shardCount(); ++s) {
            const EventQueue &q = _router->shardQueue(s);
            sum += q._livePending - q._keepalivePending;
        }
        return sum;
    }

    /** True when no pending real events remain. */
    bool empty() const { return pending() == 0; }

    /**
     * Drain the queue: run events in (tick, key, seq) order until none
     * remain, or -- when @p maxTick is given -- until the next event
     * lies beyond it. Events scheduled exactly at @p maxTick DO
     * execute. With an explicit bound the clock always advances to
     * @p maxTick before returning, even if the queue drained earlier,
     * so back-to-back runUntil() calls see monotonic time; with the
     * default (unbounded) drain the clock stays at the last executed
     * event's tick. With a ShardRouter installed this drives the
     * windowed rendezvous loop across every shard instead.
     * @return now() after the run (== maxTick for bounded runs).
     */
    Tick
    run(Tick maxTick = kMaxTick)
    {
        if (_router)
            return _router->runSharded(maxTick);
        return runLocal(maxTick);
    }

    /**
     * Run every event up to and including @p when, then advance the
     * clock to @p when. Equivalent to run(when); provided so callers
     * driving the queue in bounded slices read naturally.
     */
    Tick runUntil(Tick when) { return run(when); }

    /** Execute at most one event. @return true if one ran. */
    bool step();

    /** Total number of events executed so far (cancels excluded). */
    std::uint64_t
    executed() const
    {
        if (!_router)
            return _executed;
        std::uint64_t sum = 0;
        for (std::uint32_t s = 0; s < _router->shardCount(); ++s)
            sum += _router->shardQueue(s)._executed;
        return sum;
    }

    /** Total number of events cancelled so far. */
    std::uint64_t
    cancelled() const
    {
        if (!_router)
            return _cancelled;
        std::uint64_t sum = 0;
        for (std::uint32_t s = 0; s < _router->shardCount(); ++s)
            sum += _router->shardQueue(s)._cancelled;
        return sum;
    }

    /**
     * Nodes owned by the slab arena (capacity high-water mark). Under
     * steady-state schedule/execute churn this stays constant -- the
     * pool-recycling tests pin that property.
     */
    std::size_t arenaNodes() const { return _slabs.size() * kSlabNodes; }

    /**
     * Arm the no-progress watchdog. The queue trips (dumps diagnostics
     * and exits with kWatchdogExitCode) when more than @p maxIdleEvents
     * events execute, or more than @p maxIdleTicks ticks elapse, with
     * no intervening noteProgress() call. A zero limit disables that
     * dimension; both zero disarms the watchdog. With a ShardRouter
     * installed the watchdog is fanned out to every shard, so a stall
     * is attributed to the shard that kept dispatching without
     * progress.
     * @param dump optional component-state dump appended to the report.
     */
    void configureWatchdog(std::uint64_t maxIdleEvents, Tick maxIdleTicks,
                           std::function<void(std::ostream &)> dump = {});

    /**
     * Mark forward progress (a retired instruction, a resolved fault, a
     * committed migration). Cheap enough for hot paths.
     */
    void
    noteProgress()
    {
        EventQueue &q = active();
        q._lastProgressEvent = q._executed;
        q._lastProgressTick = q._now;
    }

    /**
     * Install (or clear) the shard router. Root queue only; must be
     * done while the queue is quiescent, before any events exist.
     */
    void setRouter(ShardRouter *router) { _router = router; }

    /** The installed shard router (null in serial runs). */
    ShardRouter *router() const { return _router; }

    /**
     * Install a hook invoked from the dispatch loop every ~64Ki
     * executed events (serial runs; a sharded run reports progress at
     * rendezvous instead). The hook throttles itself by wall clock;
     * the stride only bounds how often it is consulted. Pass an empty
     * function to remove.
     */
    void setProgressHook(std::function<void()> hook)
    {
        _progressHook = std::move(hook);
    }

    /**
     * Shard id the calling thread is executing (0 when serial or
     * outside a sharded window). Used to index per-shard stat lanes.
     */
    static std::uint32_t
    currentShard()
    {
        return tlsCurrent ? tlsShardId : 0;
    }

    /** Label printed by watchdog reports ("shard 3" etc.). */
    void setShardLabel(std::string label) { _shardLabel = std::move(label); }

  private:
    friend class ShardScheduler;
    friend class ShardScope;

    /**
     * One pooled event. Nodes never move. `next` links a free node
     * into the free list and a pending wheel node into its bucket.
     */
    struct Node
    {
        Tick when = 0;
        std::uint64_t key = kNormalEventKey;
        std::uint64_t seq = 0;
        bool scheduled = false;
        bool isCancelled = false;
        bool keepalive = false;
        InlineEvent fn;
        Node *next = nullptr;
    };

    /** Far-heap record; sift operations move 32 bytes. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t key;
        std::uint64_t seq;
        Node *node;
    };

    /**
     * Min-(when, key, seq) ordering. Deliveries (key < MAX) run before
     * same-tick ordinary events; ordinary events keep pure scheduling
     * order among themselves (key == kNormalEventKey for all of them).
     */
    struct Later
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.key != b.key)
                return a.key > b.key;
            return a.seq > b.seq;
        }
    };

    /** One wheel bucket: the events of one tick, in (key, seq) order. */
    struct Bucket
    {
        Node *head = nullptr;
        Node *tail = nullptr;
    };

    static constexpr Tick kWheelMask = kWheelSpan - 1;
    /** 64-bit occupancy words; one summary word indexes all of them. */
    static constexpr std::size_t kWheelWords = kWheelSpan / 64;
    static_assert((kWheelSpan & kWheelMask) == 0 && kWheelWords <= 64,
                  "wheel span must be a power of two up to 64 * 64");

    static constexpr std::size_t kSlabNodes = 256;

    /** The queue this thread's component calls should operate on. */
    EventQueue &
    active()
    {
        return tlsCurrent ? *tlsCurrent : *this;
    }

    const EventQueue &
    activeC() const
    {
        return tlsCurrent ? *tlsCurrent : *this;
    }

    /**
     * Schedule on THIS queue (no routing). The shard scheduler uses it
     * to apply cross-shard deposits from the rendezvous barrier.
     */
    template <typename F>
    EventId
    scheduleLocal(Tick when, std::uint64_t key, F &&fn)
    {
        if (when < _now)
            throw SchedulingError(_now, when);
        if constexpr (std::is_same_v<std::decay_t<F>, EventFn>)
            checkNonNull(static_cast<bool>(fn));
        Node *node = prepareNode(when, key);
        try {
            node->fn.emplace(std::forward<F>(fn));
        } catch (...) {
            // The node is already queued; abandon it as a cancelled
            // entry so pruning reclaims it lazily.
            node->isCancelled = true;
            --_livePending;
            throw;
        }
        return EventId{node->seq, node, this};
    }

    /**
     * Claim a node, stamp it with (when, key, seq), and queue it. The
     * caller then constructs the callback in place via
     * node->fn.emplace(), so scheduling performs zero callback moves.
     * Inline: this is the hottest function in the simulator.
     */
    Node *
    prepareNode(Tick when, std::uint64_t key)
    {
        if (!_freeList)
            growArena();
        Node *node = _freeList;
        _freeList = node->next;
        node->scheduled = true;
        node->isCancelled = false;
        node->keepalive = false;
        node->when = when;
        node->key = key;
        node->seq = _nextSeq++;
        if (when - _now < kWheelSpan) {
            pushWheel(node);
        } else {
            _far.push_back(HeapEntry{when, key, node->seq, node});
            std::push_heap(_far.begin(), _far.end(), Later{});
        }
        ++_livePending;
        return node;
    }

    /** Link @p node into its tick's bucket, in (key, seq) order. */
    void
    pushWheel(Node *node)
    {
        const std::size_t slot = node->when & kWheelMask;
        Bucket &bucket = _wheel[slot];
        node->next = nullptr;
        if (!bucket.head) {
            bucket.head = bucket.tail = node;
            _slotBits[slot / 64] |= std::uint64_t{1} << (slot % 64);
            _wordBits |= std::uint64_t{1} << (slot / 64);
        } else if (node->key == kNormalEventKey) {
            // seq only grows, so an ordinary event sorts last.
            bucket.tail->next = node;
            bucket.tail = node;
        } else {
            Node **link = &bucket.head;
            while (*link && (*link)->key <= node->key)
                link = &(*link)->next;
            node->next = *link;
            *link = node;
            if (!node->next)
                bucket.tail = node;
        }
    }

    /**
     * First occupied wheel slot at or after the current tick's, in
     * tick order, or kWheelSpan when the wheel is empty. The current
     * tick's word is checked inline; the rest is nextSlotBeyond().
     */
    std::size_t
    nextSlot()
    {
        const std::size_t from = _now & kWheelMask;
        const std::size_t word = from / 64;
        const std::uint64_t bits =
            _slotBits[word] & (~std::uint64_t{0} << (from % 64));
        if (bits)
            return word * 64 + std::countr_zero(bits);
        return nextSlotBeyond(word);
    }

    std::size_t nextSlotBeyond(std::size_t word);

    /**
     * The next event in (when, key, seq) order, or null when none is
     * pending. Cancelled entries met on the way are reclaimed. Every
     * consumer (run loops, nextEventTick, step, the watchdog dump)
     * goes through here, and the run loops hand the node straight to
     * dispatch(), so each dispatched event costs one bitmap scan.
     */
    Node *
    top()
    {
        for (;;) {
            Node *node;
            const std::size_t slot = nextSlot();
            if (slot != kWheelSpan)
                node = _wheel[slot].head;
            else if (!_far.empty())
                node = _far.front().node;
            else
                return nullptr;
            if (!node->isCancelled)
                return node;
            unlinkTop(node);
            recycle(node);
        }
    }

    /**
     * Remove @p node, which top() just returned, from the queue. The
     * far heap holds exactly the events a span or more past now.
     */
    void
    unlinkTop(Node *node)
    {
        if (node->when - _now >= kWheelSpan) {
            std::pop_heap(_far.begin(), _far.end(), Later{});
            _far.pop_back();
            return;
        }
        const std::size_t slot = node->when & kWheelMask;
        Bucket &bucket = _wheel[slot];
        bucket.head = node->next;
        if (!bucket.head)
            _slotBits[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    }

    /** Earliest pending tick on THIS queue (kMaxTick when empty). */
    Tick
    nextEventTick()
    {
        const Node *node = top();
        return node ? node->when : kMaxTick;
    }

    /** Run THIS queue's events through @p maxTick (no routing). */
    Tick runLocal(Tick maxTick);

    /**
     * Dispatch THIS queue's events with when <= @p horizon, leaving
     * the clock at the last executed event (no advance to the bound).
     * One conservative window of a sharded run.
     */
    void
    runWindow(Tick horizon)
    {
        while (Node *node = top()) {
            if (node->when > horizon)
                break;
            dispatch(node);
        }
    }

    bool cancelLocal(EventId id);
    /**
     * Cancel every pending keepalive on THIS queue (end of an
     * unbounded drain; the shard scheduler calls it per shard).
     * Entries are reclaimed lazily; not counted in cancelled().
     */
    void cancelKeepalives();
    void growArena();
    /** Unlink, run, and recycle @p node, which top() just returned. */
    void dispatch(Node *node);
    void recycle(Node *node);
    /** Move far-heap events within one span of now into the wheel. */
    void migrateFar();
    /**
     * Set the clock to @p t, keeping the wheel's slots unique. No
     * live event may lie before @p t, and moving backward (the shard
     * scheduler's end-of-drain snap) requires that none is pending.
     * Cancelled entries in front, such as a drained run's keepalive
     * wakes, are reclaimed first.
     */
    void setClock(Tick t);
    void checkNonNull(bool nonNull) const;
    [[noreturn]] void watchdogTrip();

    // constinit: other translation units read these directly, with no
    // call through a TLS initialisation wrapper on every schedule().
    static constinit thread_local EventQueue *tlsCurrent;
    static constinit thread_local std::uint32_t tlsShardId;

    std::vector<std::unique_ptr<Node[]>> _slabs;
    Node *_freeList = nullptr;
    std::size_t _livePending = 0;
    std::size_t _keepalivePending = 0;

    Tick _now = 0;
    /** Bit s of word s / 64: slot s is occupied. */
    std::array<std::uint64_t, kWheelWords> _slotBits{};
    /**
     * Bit w: _slotBits[w] may be nonzero. Set on insert, cleared
     * lazily by the scan that finds the word empty.
     */
    std::uint64_t _wordBits = 0;
    /** Events at least kWheelSpan ticks past now. */
    std::vector<HeapEntry> _far;
    /** Tick of the last dispatched non-keepalive event. */
    Tick _lastRealTick = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
    std::uint64_t _cancelled = 0;
    std::function<void()> _progressHook;

    ShardRouter *_router = nullptr;
    std::string _shardLabel;

    std::uint64_t _wdMaxIdleEvents = 0;
    Tick _wdMaxIdleTicks = 0;
    std::function<void(std::ostream &)> _wdDump;
    std::uint64_t _lastProgressEvent = 0;
    Tick _lastProgressTick = 0;

    /** Wheel bucket per tick, slot = tick & kWheelMask (64 KiB). */
    std::array<Bucket, kWheelSpan> _wheel{};
};

/**
 * RAII scope binding the calling thread to one shard queue. Every
 * EventQueue entry point made by component code inside the scope
 * operates on @p q. The shard scheduler wraps each window in one;
 * System::launch wraps per-GPU setup so initial events land on the
 * owning shard.
 */
class ShardScope
{
  public:
    ShardScope(EventQueue &q, std::uint32_t shard)
        : _prevQueue(EventQueue::tlsCurrent),
          _prevShard(EventQueue::tlsShardId)
    {
        EventQueue::tlsCurrent = &q;
        EventQueue::tlsShardId = shard;
    }

    ShardScope(const ShardScope &) = delete;
    ShardScope &operator=(const ShardScope &) = delete;

    ~ShardScope()
    {
        EventQueue::tlsCurrent = _prevQueue;
        EventQueue::tlsShardId = _prevShard;
    }

  private:
    friend class EventQueue;
    EventQueue *_prevQueue;
    std::uint32_t _prevShard;
};

} // namespace idyll

#endif // IDYLL_SIM_EVENT_QUEUE_HH
