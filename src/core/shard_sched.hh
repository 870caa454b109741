/**
 * @file
 * Conservative-lookahead shard scheduler (DESIGN.md section 10).
 *
 * Partitions a run into one EventQueue shard per device group: shard 0
 * (the System's root queue) owns the host -- the UVM driver, host page
 * table, directories -- and GPU g lives on shard 1 + (g mod (S-1)).
 * Each shard runs ahead independently inside a window [T, H]:
 *
 *   T = min over shards of the earliest pending tick,
 *   H = min(T + L, maxTick),  L = min cross-shard one-way link latency.
 *
 * Safety invariant: any cross-shard message sent at tick t >= T arrives
 * no earlier than t + ser + latency >= T + 1 + L > H (serialization of
 * a message is at least one cycle), so nothing a shard does inside the
 * window can schedule work another shard would have to see inside the
 * same window. Cross-shard arrivals are *deposited* into single-writer
 * per-(from, to) outboxes and moved onto their target queue at the
 * rendezvous barrier that ends the window -- strictly before any window
 * that could reach their tick. With L == 0 (zero-latency links) the
 * window degenerates to the single tick T, which is slow but stays
 * correct; the sharded-core tests pin that edge case.
 *
 * Determinism: execution order within a shard is (tick, key, seq) --
 * identical to serial mode because the same comparator runs there, and
 * delivery keys come from single-writer interconnect lane counters that
 * advance in shard-local execution order (mode-independent by
 * induction). The rendezvous schedule itself depends only on event
 * timestamps, never on thread timing, so sharded runs are bit-identical
 * to --shards 1. tests/test_sharded_core.cc proves this across
 * topology, scheme, seed, and fault-plan randomization.
 */

#ifndef IDYLL_CORE_SHARD_SCHED_HH
#define IDYLL_CORE_SHARD_SCHED_HH

#include <barrier>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/metrics.hh"

namespace idyll
{

class ShardScheduler : public ShardRouter
{
  public:
    /**
     * @param root      the System's event queue; becomes shard 0.
     * @param shards    total shard count (>= 2; <= numGpus + 1).
     * @param numGpus   topology size, for the node -> shard map.
     * @param lookahead min one-way cross-shard link latency L.
     */
    ShardScheduler(EventQueue &root, std::uint32_t shards,
                   std::uint32_t numGpus, Cycles lookahead);
    ~ShardScheduler() override;

    ShardScheduler(const ShardScheduler &) = delete;
    ShardScheduler &operator=(const ShardScheduler &) = delete;

    // --- ShardRouter --------------------------------------------------
    std::uint32_t shardOfNode(GpuId node) const override;
    std::uint32_t shardCount() const override { return _shards; }
    EventQueue &shardQueue(std::uint32_t shard) override;
    const EventQueue &shardQueue(std::uint32_t shard) const override;
    Cycles lookahead() const override { return _lookahead; }
    void deposit(std::uint32_t fromShard, std::uint32_t toShard,
                 Tick when, std::uint64_t key, EventFn fn) override;
    Tick runSharded(Tick maxTick) override;

    /** Events executed by one shard (for the scaling bench). */
    std::uint64_t shardExecuted(std::uint32_t shard) const;

    /** Rendezvous windows driven so far. */
    std::uint64_t windows() const { return _windows.value(); }

    /**
     * Per-shard heartbeat counters, refreshed at every rendezvous on
     * the main thread. Dumped by --stats under metrics() and
     * serialized as the results-JSON shard telemetry section; safe to
     * read whenever the run is quiescent (between windows or after
     * runSharded returns).
     */
    struct ShardStats : MetricsGroup
    {
        explicit ShardStats(std::uint32_t shard)
            : MetricsGroup("shard" + std::to_string(shard))
        {
            setLabel("shard", std::to_string(shard));
        }

        /// shard clock at the last rendezvous
        Counter lastTick{*this, "lastTick"};
        /// cumulative events dispatched
        Counter executed{*this, "executed"};
        /// windows this shard dispatched nothing
        Counter stallWindows{*this, "stallWindows"};
        /// cross-shard deliveries received
        Counter depositsIn{*this, "depositsIn"};
        /// cross-shard deliveries sent
        Counter depositsOut{*this, "depositsOut"};
    };

    const ShardStats &shardStats(std::uint32_t shard) const;

    /**
     * The "shards" group: rendezvous windows and every ShardStats.
     * Kept out of the system's tree so the results-JSON metrics stay
     * identical across shard counts.
     */
    const MetricsGroup &metrics() const { return _metrics; }

    /**
     * Install a hook run on the main thread after every rendezvous
     * (deposits applied, every worker parked at the barrier, so all
     * shard state is safe to read). The harness uses hooks to flush
     * per-shard observability buffers (latency op logs, JSONL trace
     * lanes) and to print the --progress status line.
     */
    void addRendezvousHook(std::function<void()> hook);

  private:
    struct Deposit
    {
        Tick when;
        std::uint64_t key;
        EventFn fn;
    };

    void workerLoop(std::uint32_t shard);
    /** Move every outbox entry onto its target queue (main thread). */
    void applyDeposits();
    /** Refresh the per-shard heartbeat counters (main thread). */
    void noteWindowStats();

    EventQueue &_root;
    std::vector<std::unique_ptr<EventQueue>> _extra; ///< shards 1..S-1
    std::uint32_t _shards;
    std::uint32_t _numGpus;
    Cycles _lookahead;

    /** Outbox for (from, to); written only by `from` inside a window. */
    std::vector<std::vector<Deposit>> _outboxes; ///< [from * S + to]

    std::barrier<> _rendezvous;
    std::vector<std::thread> _workers;
    /** Written by main before the start barrier, read after it. */
    Tick _horizon = 0;
    bool _stop = false;
    bool _inWindow = false;

    MetricsGroup _metrics{"shards"};
    Counter _windows{_metrics, "windows"};
    std::deque<ShardStats> _stats;            ///< one per shard
    std::vector<std::uint64_t> _prevExecuted; ///< stall detection
    std::vector<std::function<void()>> _hooks;
};

} // namespace idyll

#endif // IDYLL_CORE_SHARD_SCHED_HH
