#include "gmmu/gmmu.hh"

#include "sim/logging.hh"

namespace idyll
{

Gmmu::Gmmu(EventQueue &eq, const GmmuConfig &cfg, const AddrLayout &layout,
           RadixPageTable &pt)
    : _eq(eq), _cfg(cfg), _layout(layout), _pt(pt),
      _mmuCache(cfg, layout), _walkers(cfg.walkerThreads)
{
    for (std::uint32_t lvl = 1; lvl <= _mmuCache.numCachedLevels(); ++lvl)
        _stats.addChild(_mmuCache.levelStats(lvl));
}

void
Gmmu::submit(WalkRequest request)
{
    IDYLL_ASSERT(request.done, "walk request without completion");
    if (!_deferred.empty() || _queue.size() >= _cfg.walkQueueEntries) {
        // Real backpressure: NACK and re-attempt after the retry
        // interval instead of growing the queue past its capacity.
        // Deferred submits are admitted in first-attempt order (behind
        // any submit NACKed earlier), so a retry can never overtake a
        // request for the same VPN — the wait clock keeps running from
        // the first attempt, so the stall lands in queueWait and the
        // caller's ptw-queue latency phase.
        _stats.queueFullStalls.inc();
        _deferred.push_back(Queued{std::move(request), _eq.now()});
        scheduleRetry();
        return;
    }
    _queue.push_back(Queued{std::move(request), _eq.now()});
    tryDispatch();
}

void
Gmmu::scheduleRetry()
{
    if (_retryScheduled)
        return;
    _retryScheduled = true;
    _eq.schedule(_cfg.walkQueueRetryLatency, [this] {
        _retryScheduled = false;
        drainDeferred();
    });
}

void
Gmmu::drainDeferred()
{
    while (!_deferred.empty() &&
           _queue.size() < _cfg.walkQueueEntries) {
        _queue.push_back(std::move(_deferred.front()));
        _deferred.pop_front();
    }
    tryDispatch();
    if (!_deferred.empty()) {
        // Still full: every deferred requester burns another spin.
        _stats.queueFullStalls.inc();
        scheduleRetry();
    }
}

void
Gmmu::tryDispatch()
{
    while (_busyWalkers < _walkers && !_queue.empty()) {
        Queued next = std::move(_queue.front());
        _queue.pop_front();
        ++_busyWalkers;
        execute(std::move(next));
    }
}

Cycles
Gmmu::walkCost(Vpn vpn, bool install_pwc, std::uint32_t *levelsOut)
{
    // How deep the path actually exists: presentLevels counts nodes
    // from the root; convert to the deepest existing node level.
    const std::uint32_t present = _pt.presentLevels(vpn);
    const std::uint32_t deepest_node_level = _layout.numLevels - present + 1;
    const std::uint32_t stop_level = std::max(deepest_node_level, 1u);

    // Deepest VALID cached node pointer lets the walk start low in
    // the tree. The probe is clamped to the present path: a cached
    // pointer below stop_level is stale (its node no longer backs
    // this VPN) and is dropped, so a walk can never cost zero
    // accesses.
    const std::uint32_t hit_level =
        _mmuCache.deepestValidHit(vpn, stop_level);
    const std::uint32_t start_level =
        hit_level ? hit_level : _layout.numLevels;
    IDYLL_ASSERT(start_level >= stop_level,
                 "MMU-cache hit below the present path");
    const std::uint32_t accesses = start_level - stop_level + 1;

    if (install_pwc) {
        // Cache pointers for every existing non-root node we reached
        // (on a truncated path, that is the nodes above the hole).
        _mmuCache.fill(vpn, stop_level);
    }

    if (levelsOut)
        *levelsOut = accesses;
    return _cfg.pwcLookupLatency + accesses * _cfg.perLevelLatency;
}

void
Gmmu::execute(Queued queued)
{
    WalkRequest &req = queued.req;
    const Cycles wait = _eq.now() - queued.enqueued;
    _stats.queueWait.sample(static_cast<double>(wait));

    const Vpn traceVpn =
        req.kind == WalkKind::BatchInvalidate && !req.batch.empty()
            ? req.batch.front()
            : req.vpn;
    IDYLL_TRACE(_tracer, WalkStart, _gpu, traceVpn,
                static_cast<std::uint64_t>(req.kind), wait);

    Cycles cost = 0;
    std::uint32_t levels = 0; // PT nodes touched (latency scoreboard)
    WalkResult result;
    result.kind = req.kind;
    result.vpn = req.vpn;
    result.queueWait = wait;

    switch (req.kind) {
      case WalkKind::Demand: {
        cost = walkCost(req.vpn, true, &levels);
        const Pte *pte = _pt.find(req.vpn);
        if (pte && pte->valid()) {
            result.found = true;
            result.pte = *pte;
        }
        _stats.demandWalks.inc();
        _stats.busyDemandCycles.inc(cost);
        _stats.demandWalkLatency.sample(static_cast<double>(wait + cost));
        break;
      }
      case WalkKind::Invalidate: {
        // Walk plus the PTE write-back (read-modify-write of the leaf).
        // No fill: the walk's purpose is to kill this translation, and
        // the INVLPG-style flush below would drop the pointers anyway.
        cost = walkCost(req.vpn, false, &levels) + _cfg.perLevelLatency;
        ++levels;
        if (_pt.invalidate(req.vpn))
            result.invalidated = 1;
        // Paging-structure caches are not coherent with PTE writes:
        // an invalidation must also flush the cached pointers covering
        // the address, so the next demand walk re-reads the tree.
        _mmuCache.invalidateVpn(req.vpn);
        _stats.invalWalks.inc();
        _stats.busyInvalCycles.inc(cost);
        _stats.invalWalkLatency.sample(static_cast<double>(wait + cost));
        break;
      }
      case WalkKind::Update: {
        cost = walkCost(req.vpn, false, &levels) + _cfg.perLevelLatency;
        ++levels;
        if (req.newPte.valid()) {
            _pt.install(req.vpn, req.newPte.pfn(),
                        req.newPte.writable());
            // The install allocated any missing nodes: the full path
            // exists now, so cache it for the refill walks that chase
            // this mapping.
            _mmuCache.fill(req.vpn, 1);
        } else {
            _pt.invalidate(req.vpn);
            _mmuCache.invalidateVpn(req.vpn);
        }
        _stats.updateWalks.inc();
        _stats.busyUpdateCycles.inc(cost);
        break;
      }
      case WalkKind::BatchInvalidate: {
        IDYLL_ASSERT(!req.batch.empty(), "empty invalidation batch");
        // First VPN pays a full walk; the rest share the leaf-node
        // pointer and pay one access each.
        cost = walkCost(req.batch.front(), false, &levels) +
               _cfg.perLevelLatency;
        ++levels;
        std::uint32_t invalidated =
            _pt.invalidate(req.batch.front()) ? 1 : 0;
        for (std::size_t i = 1; i < req.batch.size(); ++i) {
            // Later VPNs share the leaf-node pointer: one read-modify-
            // write of their PTE each, no upper-level re-walk.
            cost += _cfg.perLevelLatency;
            ++levels;
            if (_pt.invalidate(req.batch[i]))
                ++invalidated;
        }
        // One flush covers the whole batch: IRMB batches share a base,
        // so every VPN's node-pointer path is the same at every level.
        _mmuCache.invalidateVpn(req.batch.front());
        result.invalidated = invalidated;
        _stats.batchWalks.inc();
        _stats.invalWalks.inc(
            static_cast<std::uint64_t>(req.batch.size()));
        _stats.busyInvalCycles.inc(cost);
        _stats.invalWalkLatency.sample(static_cast<double>(wait + cost));
        break;
      }
    }

    result.walkCycles = cost;
    IDYLL_LAT(_latency, noteWalk(_gpu, levels, cost));
    _eq.schedule(cost, [this, req = std::move(req), result,
                        traceVpn]() mutable {
        --_busyWalkers;
        result.batch = req.batch;
        IDYLL_TRACE(_tracer, WalkDone, _gpu, traceVpn,
                    static_cast<std::uint64_t>(result.kind),
                    result.walkCycles, result.batch.size());
        req.done(result);
        tryDispatch();
        if (_busyWalkers < _walkers && _queue.empty() && _idleHook)
            _idleHook();
    });
}

} // namespace idyll
