/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, determinism,
 * and clock behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace idyll
{
namespace
{

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifoOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NestedSchedulingAdvancesClock)
{
    EventQueue eq;
    Tick inner_fired = 0;
    eq.schedule(10, [&] {
        eq.schedule(5, [&] { inner_fired = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(inner_fired, 15u);
}

TEST(EventQueue, ZeroDelayRunsThisTick)
{
    EventQueue eq;
    bool ran = false;
    eq.schedule(7, [&] {
        eq.schedule(0, [&] { ran = (eq.now() == 7); });
    });
    eq.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, RunUntilStopsAtBound)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 42; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 42u);
}

TEST(EventQueue, SchedulingInThePastThrowsStructuredError)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    try {
        eq.scheduleAt(5, [] {});
        FAIL() << "scheduleAt(5) at tick 10 should have thrown";
    } catch (const SchedulingError &err) {
        EXPECT_EQ(err.now(), 10u);
        EXPECT_EQ(err.when(), 5u);
        EXPECT_NE(std::string(err.what()).find("past"),
                  std::string::npos);
    }
    // The queue survives the rejected event and stays usable.
    bool ran = false;
    eq.scheduleAt(12, [&] { ran = true; });
    eq.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(eq.now(), 12u);
}

TEST(EventQueue, BoundedRunAdvancesClockToMaxTickOnDrain)
{
    // Regression: run(maxTick) used to leave the clock at the last
    // executed event even when the horizon lay further out, so
    // back-to-back bounded runs saw time stand still.
    EventQueue eq;
    eq.schedule(10, [] {});
    EXPECT_EQ(eq.run(50), 50u);
    EXPECT_EQ(eq.now(), 50u);

    // An empty bounded run still advances to the horizon.
    EXPECT_EQ(eq.runUntil(80), 80u);
    EXPECT_EQ(eq.now(), 80u);

    // An unbounded drain keeps the last executed event's tick.
    eq.schedule(5, [] {});
    EXPECT_EQ(eq.run(), 85u);
}

TEST(EventQueue, EventsExactlyAtMaxTickExecute)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleAt(50, [&] { ++fired; });
    eq.scheduleAt(51, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    int fired = 0;
    auto id = eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.cancelled(), 1u);
    EXPECT_EQ(eq.executed(), 1u);
}

TEST(EventQueue, CancelStaleHandlesIsSafeNoOp)
{
    EventQueue eq;
    EXPECT_FALSE(eq.cancel(EventQueue::EventId{}));

    auto id = eq.schedule(1, [] {});
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id)); // double cancel

    auto id2 = eq.schedule(2, [] {});
    eq.run();
    EXPECT_FALSE(eq.cancel(id2)); // already executed

    // Handle whose node was recycled and reused by a newer event:
    // the sequence check must reject it without touching the newcomer.
    auto stale = eq.schedule(10, [] {});
    eq.run();
    bool newcomer = false;
    eq.schedule(5, [&] { newcomer = true; });
    EXPECT_FALSE(eq.cancel(stale));
    eq.run();
    EXPECT_TRUE(newcomer);
}

TEST(EventQueue, SelfCancelDuringExecutionIsNoOp)
{
    EventQueue eq;
    EventQueue::EventId self;
    int fired = 0;
    self = eq.schedule(3, [&] {
        ++fired;
        EXPECT_FALSE(eq.cancel(self));
    });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.cancelled(), 0u);
}

TEST(EventQueue, PoolRecyclingStaysWithinOneSlab)
{
    // Steady-state schedule/cancel/execute churn must recycle nodes
    // instead of growing the arena: the high-water mark is set by the
    // peak pending count, not by total event traffic.
    EventQueue eq;
    std::uint64_t fired = 0;
    for (int round = 0; round < 2000; ++round) {
        auto keep = eq.schedule(1, [&] { ++fired; });
        auto drop = eq.schedule(2, [&] { ++fired; });
        (void)keep;
        EXPECT_TRUE(eq.cancel(drop));
        eq.run();
    }
    EXPECT_EQ(fired, 2000u);
    EXPECT_EQ(eq.cancelled(), 2000u);
    EXPECT_LE(eq.arenaNodes(), 256u); // one slab covers the churn
}

TEST(EventQueue, SameTickOrderStableAcrossSlabReuse)
{
    // FIFO order among same-tick events must hold even when their
    // nodes are recycled slots from earlier (executed and cancelled)
    // events, i.e. ordering comes from (tick, seq), never from node
    // identity or address.
    EventQueue eq;
    for (int warm = 0; warm < 300; ++warm) {
        auto id = eq.schedule(1, [] {});
        if (warm % 3 == 0)
            eq.cancel(id);
        eq.run();
    }
    std::vector<int> order;
    for (int i = 0; i < 64; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[i], i);
}

// ------------------------------------------------------------------
// Differential order check: the wheel + far-heap queue against a
// reference that keeps every pending event in one ordered map.
// ------------------------------------------------------------------

enum class Kind
{
    Ordinary,
    Delivery,
    Keepalive
};

/**
 * Reference queue: (when, key, seq) order spelled out by a std::map,
 * cancellation by erasure, and the EventQueue clock rules (bounded
 * runs land on the bound; an unbounded drain stops after the last
 * real event and drops the keepalives left behind).
 */
class RefQueue
{
  public:
    using Handle = std::uint64_t;

    Tick now() const { return _now; }

    std::size_t pending() const { return _queue.size() - _keepalives; }

    Handle
    schedule(Kind kind, Tick when, std::uint64_t key,
             std::function<void()> fn)
    {
        if (kind == Kind::Ordinary)
            key = kNormalEventKey;
        else if (kind == Kind::Keepalive)
            key = kKeepaliveEventKey;
        const Order order{when, key, _seq};
        _queue.emplace(order,
                       Entry{std::move(fn), kind == Kind::Keepalive});
        _bySeq.emplace(_seq, order);
        _keepalives += kind == Kind::Keepalive;
        return _seq++;
    }

    bool
    cancel(Handle h)
    {
        const auto it = _bySeq.find(h);
        if (it == _bySeq.end())
            return false;
        const auto entry = _queue.find(it->second);
        _keepalives -= entry->second.keepalive;
        _queue.erase(entry);
        _bySeq.erase(it);
        ++_cancelled;
        return true;
    }

    bool
    step()
    {
        if (_queue.empty())
            return false;
        execute();
        return true;
    }

    Tick
    run(Tick maxTick = kMaxTick)
    {
        while (!_queue.empty() &&
               std::get<0>(_queue.begin()->first) <= maxTick) {
            if (maxTick == kMaxTick && pending() == 0) {
                _queue.clear();
                _bySeq.clear();
                _keepalives = 0;
                break;
            }
            execute();
        }
        if (maxTick != kMaxTick && _now < maxTick)
            _now = maxTick;
        return _now;
    }

    std::uint64_t executed() const { return _executed; }
    std::uint64_t cancelled() const { return _cancelled; }

  private:
    using Order = std::tuple<Tick, std::uint64_t, std::uint64_t>;
    struct Entry
    {
        std::function<void()> fn;
        bool keepalive;
    };

    void
    execute()
    {
        const auto it = _queue.begin();
        _now = std::get<0>(it->first);
        std::function<void()> fn = std::move(it->second.fn);
        _keepalives -= it->second.keepalive;
        _bySeq.erase(std::get<2>(it->first));
        _queue.erase(it);
        ++_executed;
        fn();
    }

    std::map<Order, Entry> _queue;
    std::map<std::uint64_t, Order> _bySeq;
    Tick _now = 0;
    std::uint64_t _seq = 0;
    std::size_t _keepalives = 0;
    std::uint64_t _executed = 0;
    std::uint64_t _cancelled = 0;
};

/** The queue under test behind RefQueue's interface. */
class WheelQueue
{
  public:
    using Handle = EventQueue::EventId;

    Tick now() const { return _eq.now(); }
    std::size_t pending() const { return _eq.pending(); }

    Handle
    schedule(Kind kind, Tick when, std::uint64_t key,
             std::function<void()> fn)
    {
        switch (kind) {
          case Kind::Ordinary:
            return _eq.scheduleAt(when, std::move(fn));
          case Kind::Delivery:
            return _eq.scheduleDelivery(when, key, std::move(fn));
          case Kind::Keepalive:
            break;
        }
        return _eq.scheduleKeepalive(when - _eq.now(), std::move(fn));
    }

    bool cancel(Handle h) { return _eq.cancel(h); }
    bool step() { return _eq.step(); }
    Tick run(Tick maxTick = kMaxTick) { return _eq.run(maxTick); }
    std::uint64_t executed() const { return _eq.executed(); }
    std::uint64_t cancelled() const { return _eq.cancelled(); }

  private:
    EventQueue _eq;
};

/** One logged observation: what happened, and two values. */
struct Obs
{
    char what;
    std::uint64_t a;
    std::uint64_t b;

    bool
    operator==(const Obs &o) const
    {
        return what == o.what && a == o.a && b == o.b;
    }
};

/**
 * A randomized workload driven identically against either queue: the
 * same seed makes the same decisions as long as both queues execute
 * the same events in the same order, so the first divergence in the
 * observation log pinpoints an ordering bug.
 */
template <typename Q>
class OrderScenario
{
  public:
    static constexpr Tick kSpan = EventQueue::kWheelSpan;

    explicit OrderScenario(std::uint64_t seed) : _rng(seed) {}

    std::vector<Obs>
    drive()
    {
        for (int i = 0; i < 64; ++i)
            spawn();
        for (int phase = 0; phase < 80; ++phase) {
            switch (_rng.below(4)) {
              case 0:
                // A bounded slice advances the clock up to 3 spans.
                _q.run(_q.now() + _rng.below(3 * kSpan));
                _log.push_back({'r', _q.now(), _q.pending()});
                break;
              case 1:
                for (std::uint64_t n = _rng.below(64); n > 0; --n)
                    _log.push_back({'s', _q.step(), _q.now()});
                break;
              case 2:
                for (std::uint64_t n = _rng.below(8); n > 0; --n)
                    cancelOne();
                break;
              default:
                for (std::uint64_t n = _rng.below(32); n > 0; --n)
                    spawn();
                break;
            }
        }
        _q.run();
        _log.push_back({'e', _q.now(), _q.pending()});
        _log.push_back({'n', _q.executed(), _q.cancelled()});
        return _log;
    }

  private:
    /** Delay mix: 0, short, medium, long, the span edge, and far. */
    Tick
    drawDelay()
    {
        switch (_rng.below(8)) {
          case 0:
            return 0;
          case 1:
          case 2:
            return _rng.below(16);
          case 3:
          case 4:
            return _rng.below(256);
          case 5:
            return _rng.below(kSpan);
          case 6:
            return kSpan - 1 + _rng.below(3);
          default:
            return _rng.below(3 * kSpan + 1);
        }
    }

    void
    spawn(bool fromKeepalive = false)
    {
        if (_handles.size() >= 8000)
            return;
        const std::uint64_t roll = _rng.below(10);
        const Kind kind = fromKeepalive ? Kind::Keepalive
                          : roll < 6    ? Kind::Ordinary
                          : roll < 9    ? Kind::Delivery
                                        : Kind::Keepalive;
        const std::uint64_t id = _handles.size();
        // Random high bits, unique low bits: keys never repeat.
        const std::uint64_t key = (_rng.next() >> 24 << 24) | (id + 1);
        const Tick when = _q.now() + drawDelay();
        _handles.push_back(_q.schedule(kind, when, key, [this, id, kind] {
            fire(id, kind == Kind::Keepalive);
        }));
    }

    void
    fire(std::uint64_t id, bool keepalive)
    {
        _log.push_back({'x', id, _q.now()});
        if (keepalive) {
            // Keepalives only observe; they may re-arm themselves.
            if (_rng.below(4) != 0)
                spawn(true);
            return;
        }
        for (std::uint64_t n = _rng.below(3); n > 0; --n)
            spawn();
        if (_rng.below(4) == 0)
            cancelOne();
    }

    /** Cancel a recent event (often this tick's) or any earlier one. */
    void
    cancelOne()
    {
        if (_handles.empty())
            return;
        const std::uint64_t n = _handles.size();
        const std::uint64_t recent = std::min<std::uint64_t>(n, 4);
        const std::uint64_t id = _rng.below(2) == 0
                                     ? n - 1 - _rng.below(recent)
                                     : _rng.below(n);
        _log.push_back({'c', id, _q.cancel(_handles[id])});
    }

    Q _q;
    Rng _rng;
    std::vector<typename Q::Handle> _handles;
    std::vector<Obs> _log;
};

TEST(EventQueue, MatchesReferenceOrderUnderRandomizedChurn)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        const std::vector<Obs> want = OrderScenario<RefQueue>(seed).drive();
        const std::vector<Obs> got = OrderScenario<WheelQueue>(seed).drive();
        std::size_t i = 0;
        while (i < want.size() && i < got.size() && want[i] == got[i])
            ++i;
        ASSERT_EQ(i, want.size())
            << "seed " << seed << ": first divergence at observation "
            << i << " of " << want.size() << " (got "
            << (i < got.size() ? std::string(1, got[i].what) +
                                     std::to_string(got[i].a) + "/" +
                                     std::to_string(got[i].b)
                               : std::string("end"))
            << ")";
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        // The workload must reach every path it is meant to cover.
        std::size_t executed = 0, cancels = 0;
        for (const Obs &o : want) {
            executed += o.what == 'x';
            cancels += o.what == 'c' && o.b;
        }
        EXPECT_GT(executed, 1000u) << "seed " << seed;
        EXPECT_GT(cancels, 50u) << "seed " << seed;
    }
}

/**
 * Thousands of deliveries with shuffled keys, ordinary events and
 * keepalives at one tick, plus deliveries scheduled into that tick
 * while it runs: far more than the wheel's bounded in-order walk, so
 * the bucket is sorted when it reaches the top.
 */
template <typename Q>
std::vector<std::uint64_t>
crowdedTickOrder(std::uint64_t seed)
{
    Q q;
    Rng rng(seed);
    std::vector<std::uint64_t> order;
    constexpr Tick kTick = 7;
    std::uint64_t nextTag = 0;
    auto delivery = [&](std::uint64_t key) {
        const std::uint64_t tag = nextTag++;
        q.schedule(Kind::Delivery, kTick, key, [&order, tag] {
            order.push_back(tag);
        });
    };
    for (int i = 0; i < 3000; ++i) {
        switch (rng.below(8)) {
          case 0: {
            const std::uint64_t tag = nextTag++;
            q.schedule(Kind::Ordinary, kTick, 0,
                       [&order, tag] { order.push_back(tag); });
            break;
          }
          case 1: {
            const std::uint64_t tag = nextTag++;
            q.schedule(Kind::Keepalive, kTick, 0,
                       [&order, tag] { order.push_back(tag); });
            break;
          }
          case 2: {
            // Runs mid-tick and adds same-tick deliveries, some of
            // which sort before what is left.
            const std::uint64_t tag = nextTag++;
            const std::uint64_t keys[2] = {1 + rng.below(1u << 20),
                                           1 + rng.below(1u << 20)};
            q.schedule(Kind::Delivery, kTick, 1 + rng.below(1u << 20),
                       [&order, &delivery, tag, keys] {
                           order.push_back(tag);
                           delivery(keys[0]);
                           delivery(keys[1]);
                       });
            break;
          }
          default:
            delivery(1 + rng.below(1u << 20));
        }
    }
    q.run();
    return order;
}

TEST(EventQueue, CrowdedTickMatchesReferenceOrder)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const std::vector<std::uint64_t> want =
            crowdedTickOrder<RefQueue>(seed);
        ASSERT_GT(want.size(), 3000u);
        EXPECT_EQ(crowdedTickOrder<WheelQueue>(seed), want)
            << "seed " << seed;
    }
}

TEST(InlineFn, SchedulingSiteSizedCapturesStayInline)
{
    // The shape of the simulator's largest scheduling site (a `this`
    // pointer plus a WalkRequest/WalkResult payload) must fit the
    // inline buffer; if this fails, enlarge EventFn's capacity.
    struct BigCapture
    {
        void *self;
        std::array<std::uint64_t, 20> payload;
    };
    static_assert(EventFn::fitsInline<BigCapture>());
    BigCapture big{nullptr, {}};
    int fired = 0;
    EventFn ev([big, &fired] {
        (void)big;
        ++fired;
    });
    ev();
    EXPECT_EQ(fired, 1);
}

TEST(InlineFn, OversizedCallablesDoNotCompile)
{
    // There is no heap fallback: binding a callable that does not fit
    // is a static_assert in emplace(), so this can only be checked at
    // compile time.
    struct Huge
    {
        std::array<std::uint64_t, 64> payload; // 512 B > capacity
    };
    static_assert(!EventFn::fitsInline<Huge>());
    // An EventFn is its buffer plus an ops pointer, so no callable
    // holding one can fit another: wrap before erasing.
    static_assert(!EventFn::fitsInline<EventFn>());
    static_assert(EventFn::fitsInline<std::array<std::byte, 192>>());
    static_assert(!EventFn::fitsInline<std::array<std::byte, 193>>());
}

TEST(InlineFn, MoveAndResetManageLifetime)
{
    int fired = 0;
    EventFn a([&fired] { ++fired; });
    EXPECT_TRUE(static_cast<bool>(a));
    EventFn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    b();
    EXPECT_EQ(fired, 1);
    b.reset();
    EXPECT_FALSE(static_cast<bool>(b));

    // Destroying a bound callable destroys its captures exactly once.
    auto token = std::make_shared<int>(0);
    {
        EventFn holder([token] { (void)token; });
        EXPECT_EQ(token.use_count(), 2);
        EventFn moved(std::move(holder));
        EXPECT_EQ(token.use_count(), 2);
    }
    EXPECT_EQ(token.use_count(), 1);
}

} // namespace
} // namespace idyll
