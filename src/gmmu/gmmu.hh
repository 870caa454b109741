/**
 * @file
 * GPU Memory Management Unit.
 *
 * Owns the page-walk queue, the multi-threaded page-table walker, and
 * the split per-level MMU caches. Demand translations, PTE
 * invalidations, and PTE updates all flow through the same queue and
 * walkers, which is exactly the contention the paper studies. The
 * walk queue enforces its configured capacity: a submit that finds it
 * full is NACKed and retried, with the stall time accounted into the
 * request's queue wait (and thus the ptw-queue latency phase).
 */

#ifndef IDYLL_GMMU_GMMU_HH
#define IDYLL_GMMU_GMMU_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <vector>

#include "gmmu/mmu_cache.hh"
#include "mem/page_table.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/latency.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace idyll
{

/** Kind of work a walker performs. */
enum class WalkKind : std::uint8_t
{
    Demand,          ///< translate for a demand TLB miss
    Invalidate,      ///< clear one PTE (migration invalidation)
    Update,          ///< install a new mapping
    BatchInvalidate, ///< clear several PTEs sharing one IRMB base
};

/** Completion data for a walk. */
struct WalkResult
{
    WalkKind kind = WalkKind::Demand;
    Vpn vpn = 0;
    bool found = false;            ///< Demand: leaf PTE exists and valid
    Pte pte{};                     ///< Demand: the translation
    std::uint32_t invalidated = 0; ///< (Batch)Invalidate: valid PTEs hit
    Cycles queueWait = 0;
    Cycles walkCycles = 0;
    /** BatchInvalidate: the request's VPNs, valid during the call. */
    std::span<const Vpn> batch;
};

/**
 * Walk-completion continuation. The capacity fits the largest Gpu
 * walk closure (a `this` pointer plus three words of context).
 */
using WalkDoneFn = InlineFn<void(const WalkResult &), 32>;

/** A unit of work for the walkers. */
struct WalkRequest
{
    WalkKind kind = WalkKind::Demand;
    Vpn vpn = 0;
    Pte newPte{};           ///< Update payload
    std::vector<Vpn> batch; ///< BatchInvalidate payload (shared base)
    WalkDoneFn done;
};

/** GMMU statistics. */
struct GmmuStats : MetricsGroup
{
    GmmuStats() : MetricsGroup("gmmu") {}

    Counter demandWalks{*this, "demandWalks"};
    /// individual PTE invalidations executed
    Counter invalWalks{*this, "invalWalks"};
    Counter updateWalks{*this, "updateWalks"};
    /// batch requests (not individual VPNs)
    Counter batchWalks{*this, "batchWalks"};
    /// NACKed submits (one per retry spin)
    Counter queueFullStalls{*this, "queueFullStalls"};
    /// cycles from first submit to dispatch
    AvgStat queueWait{*this, "queueWait"};
    AvgStat demandWalkLatency{*this, "demandWalkLatency"};
    AvgStat invalWalkLatency{*this, "invalWalkLatency"};
    Counter busyDemandCycles{*this, "busyDemandCycles"};
    Counter busyInvalCycles{*this, "busyInvalCycles"};
    Counter busyUpdateCycles{*this, "busyUpdateCycles"};
};

/** The GMMU. */
class Gmmu
{
  public:
    /**
     * @param eq     event queue.
     * @param cfg    GMMU geometry and timing.
     * @param layout address layout.
     * @param pt     the GPU-local page table walked by this GMMU.
     */
    Gmmu(EventQueue &eq, const GmmuConfig &cfg, const AddrLayout &layout,
         RadixPageTable &pt);

    /**
     * Enqueue a walk; completion is delivered via request.done. When
     * the walk queue is at walkQueueEntries the submit is NACKed and
     * retried every walkQueueRetryLatency cycles; the queue-wait
     * clock starts at the first attempt, so stall cycles surface in
     * queueWait and the ptw-queue latency phase.
     */
    void submit(WalkRequest request);

    /** True when at least one walker thread is idle. */
    bool hasIdleWalker() const { return _busyWalkers < _walkers; }

    /** True when nothing is queued (including NACKed submits). */
    bool queueEmpty() const { return _queue.empty() && _deferred.empty(); }

    /** Pending requests in the walk queue. */
    std::size_t queueDepth() const { return _queue.size(); }

    /** Walker threads currently executing a walk. */
    std::uint32_t busyWalkers() const { return _busyWalkers; }

    /**
     * Hook invoked whenever a walker becomes idle and the queue is
     * empty; the IRMB uses it for opportunistic write-back.
     */
    void setIdleHook(std::function<void()> hook)
    {
        _idleHook = std::move(hook);
    }

    MmuCacheHierarchy &mmuCache() { return _mmuCache; }
    const GmmuStats &stats() const { return _stats; }

    /** Attach the owning GPU's tracer for walk start/done events. */
    void
    setTracer(Tracer *tracer, GpuId gpu)
    {
        _tracer = tracer;
        _gpu = gpu;
        _mmuCache.setTracer(tracer, gpu);
    }

    /** Attach the latency scoreboard for per-level walk accounting. */
    void
    setLatency(LatencyScoreboard *latency, GpuId gpu)
    {
        _latency = latency;
        _gpu = gpu;
    }

  private:
    struct Queued
    {
        WalkRequest req;
        Tick enqueued;
    };

    void scheduleRetry();
    void drainDeferred();
    void tryDispatch();
    void execute(Queued queued);
    Cycles walkCost(Vpn vpn, bool install_pwc,
                    std::uint32_t *levelsOut = nullptr);

    EventQueue &_eq;
    GmmuConfig _cfg;
    AddrLayout _layout;
    RadixPageTable &_pt;
    MmuCacheHierarchy _mmuCache;

    std::uint32_t _walkers;
    std::uint32_t _busyWalkers = 0;
    std::deque<Queued> _queue;
    std::deque<Queued> _deferred; ///< NACKed submits awaiting a slot
    bool _retryScheduled = false;
    std::function<void()> _idleHook;

    GmmuStats _stats;
    Tracer *_tracer = nullptr;
    LatencyScoreboard *_latency = nullptr;
    GpuId _gpu = 0;
};

} // namespace idyll

#endif // IDYLL_GMMU_GMMU_HH
