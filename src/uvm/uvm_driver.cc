#include "uvm/uvm_driver.hh"

#include <algorithm>
#include <ostream>

#include "sim/integrity.hh"
#include "sim/logging.hh"

namespace idyll
{

UvmDriver::UvmDriver(EventQueue &eq, const SystemConfig &cfg, Network &net,
                     const AddrLayout &layout)
    : _eq(eq), _cfg(cfg), _net(net), _layout(layout), _hostPt(layout),
      _workers(eq, cfg.hostWalkers), _latestWindow(cfg.numGpus, 0),
      _backoffRng(mix64(cfg.seed ^ 0xB0FFull))
{
    _gpuMem.reserve(cfg.numGpus);
    for (std::uint32_t g = 0; g < cfg.numGpus; ++g)
        _gpuMem.emplace_back(g, cfg.gpuMemPages);

    if (cfg.invalFilter == InvalFilter::InPteDirectory) {
        _dir = std::make_unique<InPteDirectory>(cfg.numGpus,
                                                cfg.directoryBits);
        _stats.addChild(_dir->stats());
    }
    if (cfg.invalFilter == InvalFilter::InMemDirectory) {
        _vmDir = std::make_unique<VmDirectory>(cfg.vmCache, cfg.numGpus);
        _stats.addChild(_vmDir->stats());
    }
}

const HostPage::Replica *
HostPage::replicaOf(GpuId gpu) const
{
    for (const Replica &r : replicas)
        if (r.gpu == gpu)
            return &r;
    return nullptr;
}

void
HostPage::addReplica(GpuId gpu, Pfn pfn)
{
    auto pos = std::find_if(replicas.begin(), replicas.end(),
                            [gpu](const Replica &r) { return r.gpu > gpu; });
    replicas.insert(pos, {gpu, pfn});
}

Pfn
HostPage::takeReplica(GpuId gpu)
{
    auto it = std::find_if(replicas.begin(), replicas.end(),
                           [gpu](const Replica &r) { return r.gpu == gpu; });
    IDYLL_ASSERT(it != replicas.end(), "GPU ", gpu, " holds no replica");
    const Pfn pfn = it->pfn;
    replicas.erase(it);
    return pfn;
}

void
UvmDriver::attachGpus(std::vector<GpuItf *> gpus)
{
    IDYLL_ASSERT(gpus.size() == _cfg.numGpus,
                 "expected ", _cfg.numGpus, " GPUs, got ", gpus.size());
    _gpus = std::move(gpus);
}

Pfn
UvmDriver::prepopulatePage(Vpn vpn, GpuId owner)
{
    IDYLL_ASSERT(owner < _cfg.numGpus, "bad home GPU ", owner);
    IDYLL_ASSERT(!_hostPt.findValid(vpn), "page already resident");
    auto pfn = _gpuMem[owner].allocate();
    if (!pfn)
        fatal("GPU ", owner, " out of memory during prepopulation");
    Pte &pte = _hostPt.install(vpn, *pfn, true);
    if (_dir)
        _dir->markAccess(pte, owner, vpn);
    if (_vmDir)
        _vmDir->setBit(vpn, owner);
    if (_oracle)
        _oracle->onHostInstall(vpn, *pfn);
    return *pfn;
}

Cycles
UvmDriver::hostWalkCost() const
{
    return _cfg.hostPerLevelLatency * _layout.numLevels;
}

const HostPage &
UvmDriver::hostPage(Vpn vpn) const
{
    static const HostPage kNone;
    const HostPage *page = _pages.find(vpn);
    return page ? *page : kNone;
}

HostPage &
UvmDriver::existingPage(Vpn vpn)
{
    HostPage *page = _pages.find(vpn);
    IDYLL_ASSERT(page, "no host page record for vpn ", vpn);
    return *page;
}

std::uint64_t
UvmDriver::residentPages(GpuId gpu) const
{
    IDYLL_ASSERT(gpu < _gpuMem.size(), "bad GPU id");
    return _gpuMem[gpu].used();
}

// --------------------------------------------------------------------
// Far faults
// --------------------------------------------------------------------

void
UvmDriver::onFarFault(FaultRecord fault)
{
    _stats.farFaults.inc();
    serviceFault(fault);
}

void
UvmDriver::serviceFault(FaultRecord fault)
{
    if (isDead(fault.gpu)) {
        _stats.quarantinedMessages.inc();
        return;
    }
    IDYLL_LAT(_latency, enter(kHostId, RequestKind::Demand, fault.gpu,
                              fault.vpn, LatencyPhase::FarFault,
                              _eq.now()));
    if (Migration *mig = _migrations.find(fault.vpn)) {
        _stats.blockedFaults.inc();
        IDYLL_LAT(_latency,
                  enter(kHostId, RequestKind::Demand, fault.gpu,
                        fault.vpn, LatencyPhase::MigrationWait,
                        _eq.now()));
        mig->blockedFaults.push_back(fault);
        return;
    }
    const Cycles cost = _cfg.hostFaultServiceLatency + hostWalkCost();
    _workers.submit(cost, [this, fault] {
        _stats.hostWalkLatency.sample(static_cast<double>(hostWalkCost()));
        resolveFault(fault);
    });
}

void
UvmDriver::resolveFault(FaultRecord fault)
{
    // The faulting GPU may have unplugged while this fault waited for
    // a host worker; its reply would go nowhere.
    if (isDead(fault.gpu)) {
        _stats.quarantinedMessages.inc();
        return;
    }
    // A migration may have started while this fault waited for a host
    // worker; if so the fault blocks until the migration completes.
    if (Migration *mig = _migrations.find(fault.vpn)) {
        _stats.blockedFaults.inc();
        IDYLL_LAT(_latency,
                  enter(kHostId, RequestKind::Demand, fault.gpu,
                        fault.vpn, LatencyPhase::MigrationWait,
                        _eq.now()));
        mig->blockedFaults.push_back(fault);
        return;
    }

    Pte *hpte = _hostPt.find(fault.vpn);
    if (!hpte || !hpte->valid()) {
        // First touch anywhere: allocate on the faulting GPU and move
        // the page from host memory over PCIe.
        auto pfn = _gpuMem[fault.gpu].allocate();
        if (!pfn)
            fatal("GPU ", fault.gpu, " out of memory (oversubscription "
                  "is outside this model)");
        Pte &fresh = _hostPt.install(fault.vpn, *pfn, true);
        if (_dir)
            _dir->markAccess(fresh, fault.gpu, fault.vpn);
        if (_vmDir)
            _vmDir->setBit(fault.vpn, fault.gpu);
        _stats.firstTouches.inc();
        if (_oracle)
            _oracle->onHostInstall(fault.vpn, *pfn);
        grantMapping(fault, *pfn, true, _layout.pageSize());
        return;
    }

    const GpuId owner = static_cast<GpuId>(ownerOf(hpte->pfn()));

    if (isDead(owner)) {
        // The authoritative copy died with its home GPU (this fault
        // raced the unplug recovery). Re-home from host backing store
        // and resolve the fault once the page lands on a survivor.
        if (!_migrations.contains(fault.vpn))
            rehomePage(fault.vpn, _latestWindow[owner]);
        Migration *rehome = _migrations.find(fault.vpn);
        IDYLL_ASSERT(rehome, "re-home refused");
        _stats.blockedFaults.inc();
        IDYLL_LAT(_latency,
                  enter(kHostId, RequestKind::Demand, fault.gpu,
                        fault.vpn, LatencyPhase::MigrationWait,
                        _eq.now()));
        rehome->blockedFaults.push_back(fault);
        return;
    }

    if (_dir)
        _dir->markAccess(*hpte, fault.gpu, fault.vpn);
    if (_vmDir)
        _vmDir->setBit(fault.vpn, fault.gpu);

    if (owner == fault.gpu) {
        // Resolved by an earlier fault/migration; grant the local map.
        grantMapping(fault, hpte->pfn(), true, 0);
        return;
    }

    if (_cfg.pageReplication) {
        if (!fault.write) {
            // Read fault: make a local read-only replica. A racing
            // second read fault re-sends into the frame already held; a
            // fresh frame would make the first grant stale and re-fault.
            HostPage &page = _pages[fault.vpn];
            Pfn pfn = 0;
            if (const HostPage::Replica *held = page.replicaOf(fault.gpu)) {
                pfn = held->pfn;
            } else {
                auto fresh = _gpuMem[fault.gpu].allocate();
                if (!fresh)
                    fatal("GPU ", fault.gpu, " out of memory for replica");
                pfn = *fresh;
                page.addReplica(fault.gpu, pfn);
                _stats.replications.inc();
            }
            // Page data moves owner -> requester over NVLink, then the
            // mapping reply goes out. The completion mutates driver
            // state, so it executes on the host shard (execNode).
            const std::uint64_t bytes = _layout.pageSize();
            _net.send(owner, fault.gpu, bytes, MsgClass::PageData,
                      kHostId, [this, fault, pfn] {
                          deliverReplica(fault, pfn);
                      });
            return;
        }
        if (!hostPage(fault.vpn).replicas.empty()) {
            // Write to a replicated page: collapse replicas onto the
            // writer (a migration with exact targets).
            _stats.collapses.inc();
            startMigration(fault.vpn, fault.gpu, /*collapse=*/true);
            if (Migration *op = _migrations.find(fault.vpn))
                op->blockedFaults.push_back(fault);
            return;
        }
        // Write to a non-replicated remote page: remote mapping.
        _stats.remoteMappings.inc();
        grantMapping(fault, hpte->pfn(), true, 0);
        return;
    }

    switch (_cfg.migrationPolicy) {
      case MigrationPolicy::OnTouch:
        // Migrate now; the migration's completion reply resolves the
        // fault (the faulting GPU is the destination).
        startMigration(fault.vpn, fault.gpu, /*collapse=*/false);
        if (!_migrations.contains(fault.vpn)) {
            // Migration was refused (e.g., already local): fall back.
            grantMapping(fault, _hostPt.find(fault.vpn)->pfn(), true, 0);
        }
        break;
      case MigrationPolicy::FirstTouch:
      case MigrationPolicy::AccessCounter:
        _stats.remoteMappings.inc();
        grantMapping(fault, hpte->pfn(), true, 0);
        break;
    }
}

void
UvmDriver::deliverReplica(const FaultRecord &fault, Pfn pfn)
{
    // The page copy was in flight while the driver kept processing
    // other faults; a write may have started (or finished) collapsing
    // the replicas in the meantime. Granting unconditionally would
    // resurrect a read replica the collapse round just invalidated —
    // the reader would serve data the writer believes is exclusive.
    if (Migration *mig = _migrations.find(fault.vpn)) {
        _stats.blockedFaults.inc();
        IDYLL_LAT(_latency,
                  enter(kHostId, RequestKind::Demand, fault.gpu,
                        fault.vpn, LatencyPhase::MigrationWait,
                        _eq.now()));
        mig->blockedFaults.push_back(fault);
        return;
    }
    const HostPage::Replica *held = hostPage(fault.vpn).replicaOf(fault.gpu);
    if (!held || held->pfn != pfn) {
        // Collapse already completed: the frame was freed and the
        // grant is stale. Re-run the fault against current state.
        resolveFault(fault);
        return;
    }
    grantMapping(fault, pfn, false, 0);
}

void
UvmDriver::grantMapping(const FaultRecord &fault, Pfn pfn, bool writable,
                        std::uint64_t extraBytes)
{
    _stats.faultResolveLatency.sample(
        static_cast<double>(_eq.now() - fault.raised));
    IDYLL_TRACE(_tracer, FaultResolved, fault.gpu, fault.vpn,
                _eq.now() - fault.raised);
    IDYLL_LAT(_latency, enter(kHostId, RequestKind::Demand, fault.gpu,
                              fault.vpn, LatencyPhase::Network,
                              _eq.now()));
    _eq.noteProgress();
    GpuItf *gpu = _gpus[fault.gpu];
    const MsgClass cls =
        extraBytes ? MsgClass::PageData : MsgClass::MappingReply;
    _net.send(kHostId, fault.gpu, 64 + extraBytes, cls,
              [gpu, vpn = fault.vpn, pfn, writable] {
                  gpu->receiveNewMapping(vpn, pfn, writable);
              });
}

// --------------------------------------------------------------------
// Migration
// --------------------------------------------------------------------

void
UvmDriver::onMigrationRequest(GpuId requester, Vpn vpn)
{
    if (isDead(requester)) {
        _stats.quarantinedMessages.inc();
        return;
    }
    _stats.migrationRequests.inc();
    IDYLL_TRACE(_tracer, MigRequest, requester, vpn);
    if (_migrations.contains(vpn)) {
        _stats.duplicateMigrationRequests.inc();
        return;
    }
    startMigration(vpn, requester, /*collapse=*/false);
}

void
UvmDriver::startMigration(Vpn vpn, GpuId dest, bool collapse)
{
    IDYLL_ASSERT(!_migrations.contains(vpn), "migration already active");

    Pte *hpte = _hostPt.find(vpn);
    if (!hpte || !hpte->valid()) {
        _stats.duplicateMigrationRequests.inc();
        return;
    }
    const GpuId owner = static_cast<GpuId>(ownerOf(hpte->pfn()));
    if (owner == dest && !collapse) {
        _stats.duplicateMigrationRequests.inc();
        return;
    }

    Migration op;
    op.vpn = vpn;
    op.dest = dest;
    op.oldOwner = owner;
    op.requestArrived = _eq.now();
    op.collapse = collapse;
    op.opId = _nextOpId++;
    // A dead old owner cannot source the page copy; the data comes
    // from the host backing store over PCIe instead.
    op.sourceHost = isDead(owner);
    const std::uint64_t opId = op.opId;
    auto [added, inserted] = _migrations.insert(vpn, std::move(op));
    IDYLL_ASSERT(inserted, "duplicate migration op");
    _stats.migrations.inc();
    IDYLL_TRACE(_tracer, MigStart, dest, vpn, owner);

    // Broadcast (including the zero-latency oracle) sends the
    // invalidation requests before the host walk completes.
    if (_cfg.invalFilter == InvalFilter::Broadcast && !collapse)
        sendInvalidations(*added);

    _workers.submit(hostWalkCost(), [this, vpn, opId] {
        Migration *found = _migrations.find(vpn);
        if (!found || found->opId != opId)
            return; // op aborted by an unplug while the walk was queued
        Migration &op = *found;
        op.hostWalkDone = true;
        _stats.hostWalkLatency.sample(
            static_cast<double>(hostWalkCost()));
        if (!op.invalsSent)
            sendInvalidations(op);
        maybeStartTransfer(vpn);
    });
}

void
UvmDriver::sendInvalidations(Migration &op)
{
    IDYLL_ASSERT(!op.invalsSent, "invalidations already sent");
    op.invalsSent = true;

    std::vector<GpuId> targets;
    Cycles extraLatency = 0;
    switch (_cfg.invalFilter) {
      case InvalFilter::Broadcast:
        for (GpuId g = 0; g < _cfg.numGpus; ++g)
            targets.push_back(g);
        break;
      case InvalFilter::InPteDirectory: {
        Pte *hpte = _hostPt.find(op.vpn);
        IDYLL_ASSERT(hpte, "host PTE missing during migration");
        targets = _dir->targets(*hpte, op.vpn);
        _dir->clear(*hpte, op.vpn);
        break;
      }
      case InvalFilter::InMemDirectory: {
        // The VM-Cache lookup runs in parallel with the host walk; a
        // VM-Table miss (cache miss) can outlast the walk, and the
        // excess then delays the invalidation sends.
        VmDirAccess access = _vmDir->fetchAndClear(op.vpn, op.dest);
        targets = _vmDir->expand(access.bitsMask);
        // The destination must still drop its stale remote PTE.
        if (std::find(targets.begin(), targets.end(), op.dest) ==
            targets.end())
            targets.push_back(op.dest);
        if (access.latency > hostWalkCost())
            extraLatency = access.latency - hostWalkCost();
        break;
      }
    }
    if (op.collapse) {
        // The replicas and the primary owner must be covered even if
        // the filter lost track of them (e.g. a cleared directory).
        for (const HostPage::Replica &r : hostPage(op.vpn).replicas) {
            if (std::find(targets.begin(), targets.end(), r.gpu) ==
                targets.end())
                targets.push_back(r.gpu);
        }
        if (std::find(targets.begin(), targets.end(), op.oldOwner) ==
            targets.end())
            targets.push_back(op.oldOwner);
    }
    op.targets = std::move(targets);

    if (extraLatency > 0) {
        const Vpn vpn = op.vpn;
        _eq.schedule(extraLatency, [this, vpn, opId = op.opId] {
            Migration *found = _migrations.find(vpn);
            if (!found || found->opId != opId)
                return; // aborted by an unplug during the VM lookup
            dispatchInvalidations(*found);
        });
        return;
    }
    dispatchInvalidations(op);
}

void
UvmDriver::dispatchInvalidations(Migration &op)
{
    IDYLL_ASSERT(!op.dispatched, "invalidation round already dispatched");
    op.dispatched = true;
    op.round = ++_pages[op.vpn].invalRound;

    // An unplugged GPU can never ack, and its PTEs died with it; drop
    // it from the round (stale directory bits may still name it). The
    // integrity sabotage knob silently drops one more GPU (-1: none),
    // so tests can prove the oracle catches an under-invalidation.
    const auto suppressed =
        static_cast<GpuId>(_cfg.integrity.suppressInvalGpuForTest);
    op.targets.erase(
        std::remove_if(op.targets.begin(), op.targets.end(),
                       [&](GpuId g) { return isDead(g) || g == suppressed; }),
        op.targets.end());

    op.expectedAckMask = 0;
    for (GpuId g : op.targets)
        op.expectedAckMask |= (1ull << g);
    op.ackMask = 0;

    if (_oracle)
        _oracle->onInvalRoundStart(op.vpn, op.round, op.expectedAckMask);

    for (GpuId g : op.targets)
        sendInvalidationTo(op, g);

    if (op.expectedAckMask == 0) {
        if (_oracle)
            _oracle->onInvalRoundComplete(op.vpn, op.round);
        IDYLL_TRACE(_tracer, InvalRoundDone, kHostId, op.vpn, op.round);
        maybeStartTransfer(op.vpn);
        return;
    }
    if (_cfg.integrity.invalRetryTimeout > 0)
        scheduleInvalRetry(op.vpn, op.round);
}

void
UvmDriver::sendInvalidationTo(const Migration &op, GpuId g)
{
    GpuItf *gpu = _gpus[g];
    // Necessity (invalNecessary/invalUnnecessary) is classified when
    // the first accepted ack comes back, from the wasValid verdict the
    // GPU took at receipt — probing gpu->hasValidMapping() here would
    // be a synchronous cross-shard read under sharded execution.
    _stats.invalSent.inc();
    IDYLL_TRACE(_tracer, InvalSend, g, op.vpn, op.round);
    IDYLL_LAT(_latency, begin(kHostId, RequestKind::Invalidation, g,
                              op.vpn, _eq.now(), op.round));
    _net.send(kHostId, g, 64, MsgClass::Invalidation,
              [gpu, vpn = op.vpn, round = op.round] {
                  gpu->receiveInvalidation(vpn, round);
              });
}

void
UvmDriver::scheduleInvalRetry(Vpn vpn, std::uint32_t round)
{
    Migration *found = _migrations.find(vpn);
    IDYLL_ASSERT(found, "retry timer for no migration");

    // Capped exponential backoff: base interval, then 2x, 4x, ... up
    // to 64x, plus seeded jitter so repeated losses don't resonate
    // with the drop pattern. The jitter RNG is consumed only after a
    // real retry, so a run whose timer never finds work keeps a
    // digest identical to one with the timer disabled.
    const Cycles base = _cfg.integrity.invalRetryTimeout;
    const std::uint32_t attempt = found->retryAttempts;
    Cycles delay = base << std::min(attempt, 6u);
    if (attempt > 0)
        delay += _backoffRng.below(std::max<Cycles>(base / 8, 1));

    _eq.schedule(delay, [this, vpn, round] {
        Migration *found = _migrations.find(vpn);
        if (!found)
            return; // migration completed; timer is moot
        Migration &op = *found;
        if (op.round != round || op.ackMask == op.expectedAckMask)
            return;
        _stats.invalRetryTimeouts.inc();
        for (GpuId g : op.targets) {
            if (op.ackMask & (1ull << g))
                continue;
            _stats.invalRetries.inc();
            IDYLL_TRACE(_tracer, InvalRetry, g, vpn, round);
            if (_oracle)
                _oracle->recordEvent(ProtoEvent::InvalRetry, g, vpn,
                                     round);
            GpuItf *gpu = _gpus[g];
            _net.send(kHostId, g, 64, MsgClass::Invalidation,
                      [gpu, vpn, round] {
                          gpu->receiveInvalidation(vpn, round);
                      });
        }
        ++op.retryAttempts;
        scheduleInvalRetry(vpn, round);
    });
}

void
UvmDriver::onInvalAck(GpuId from, Vpn vpn, std::uint32_t round,
                      bool wasValid)
{
    if (isDead(from)) {
        // An ack already in flight when its sender unplugged; the
        // drain self-satisfied this bit, so the message is moot.
        _stats.quarantinedMessages.inc();
        return;
    }
    _stats.invalAcks.inc();
    Migration *found = _migrations.find(vpn);
    if (!found)
        return; // ack for an already-finished (or refused) migration
    Migration &op = *found;
    if (round != op.round) {
        _stats.staleAcks.inc();
        return;
    }
    const std::uint64_t bit = 1ull << from;
    if (!(op.expectedAckMask & bit)) {
        _stats.staleAcks.inc();
        return;
    }
    if (op.ackMask & bit) {
        _stats.duplicateAcks.inc();
        return;
    }
    op.ackMask |= bit;
    // First accepted ack for this (gpu, round): settle the necessity
    // accounting with the verdict the GPU took at receipt.
    if (wasValid)
        _stats.invalNecessary.inc();
    else
        _stats.invalUnnecessary.inc();
    IDYLL_TRACE(_tracer, InvalAck, from, vpn, round);
    IDYLL_LAT(_latency, finish(kHostId, RequestKind::Invalidation, from,
                               vpn, _eq.now(), round));
    if (op.ackMask == op.expectedAckMask) {
        if (_oracle)
            _oracle->onInvalRoundComplete(vpn, op.round);
        IDYLL_TRACE(_tracer, InvalRoundDone, kHostId, vpn, op.round);
    }
    maybeStartTransfer(vpn);
}

void
UvmDriver::maybeStartTransfer(Vpn vpn)
{
    Migration *found = _migrations.find(vpn);
    if (!found)
        return; // aborted by an unplug between ack and transfer
    Migration &op = *found;
    if (!op.hostWalkDone || !op.invalsSent || !op.dispatched ||
        op.ackMask != op.expectedAckMask || op.transferStarted) {
        return;
    }
    op.transferStarted = true;
    _stats.migrationWait.sample(
        static_cast<double>(_eq.now() - op.requestArrived));
    IDYLL_TRACE(_tracer, MigTransfer, op.dest, vpn,
                _eq.now() - op.requestArrived);

    if (op.oldOwner == op.dest && !op.sourceHost) {
        // Collapse onto the current owner: no data movement.
        finishMigration(vpn, op.opId);
        return;
    }
    // Re-homes (and migrations whose source died pre-copy) pull the
    // page from host backing store over PCIe instead of the old owner.
    const GpuId src = op.sourceHost ? kHostId : op.oldOwner;
    // The transfer completion runs driver-side bookkeeping, so it
    // executes on the host shard even though the data lands at dest.
    _net.send(src, op.dest, _layout.pageSize(), MsgClass::PageData,
              kHostId,
              [this, vpn, opId = op.opId] { finishMigration(vpn, opId); });
}

void
UvmDriver::finishMigration(Vpn vpn, std::uint64_t opId)
{
    Migration *found = _migrations.find(vpn);
    if (!found || found->opId != opId)
        return; // op aborted (and possibly restarted) by an unplug
    Migration op = std::move(*found);
    IDYLL_ASSERT(!isDead(op.dest), "finishing migration to a dead GPU");

    Pte *hpte = _hostPt.find(vpn);
    IDYLL_ASSERT(hpte && hpte->valid(), "host PTE lost during migration");

    Pfn newPfn = hpte->pfn();
    if (op.oldOwner != op.dest) {
        auto pfn = _gpuMem[op.dest].allocate();
        if (!pfn)
            fatal("GPU ", op.dest, " out of memory during migration");
        _gpuMem[op.oldOwner].release(hpte->pfn());
        newPfn = *pfn;
    }

    // Free every read replica (collapse) — their PTEs are invalid now.
    // The record exists: dispatchInvalidations numbered this round.
    HostPage &page = existingPage(vpn);
    for (const HostPage::Replica &r : page.replicas)
        _gpuMem[r.gpu].release(r.pfn);
    page.replicas.clear();

    Pte &fresh = _hostPt.install(vpn, newPfn, true);
    if (_dir)
        _dir->markAccess(fresh, op.dest, vpn);
    if (_vmDir)
        _vmDir->setBit(vpn, op.dest);
    _migrations.erase(vpn);

    _stats.migrationTotal.sample(
        static_cast<double>(_eq.now() - op.requestArrived));
    IDYLL_TRACE(_tracer, MigDone, op.dest, vpn,
                _eq.now() - op.requestArrived, newPfn);
    if (op.recovery) {
        ++_recoveries[op.recoveryWindow].rehomedPages;
        _stats.rehomedPages.inc();
        closePendingOp(op.recoveryWindow);
    }
    _eq.noteProgress();
    if (_oracle)
        _oracle->onHostInstall(vpn, newPfn);

    // Hand the destination its new local mapping.
    IDYLL_LAT(_latency, enter(kHostId, RequestKind::Demand, op.dest,
                              vpn, LatencyPhase::Network, _eq.now()));
    GpuItf *gpu = _gpus[op.dest];
    _net.send(kHostId, op.dest, 64, MsgClass::MappingReply,
              [gpu, vpn, newPfn] {
                  gpu->receiveNewMapping(vpn, newPfn, true);
              });

    replayBlocked(std::move(op.blockedFaults));
}

void
UvmDriver::replayBlocked(std::vector<FaultRecord> faults)
{
    for (FaultRecord &fault : faults) {
        if (isDead(fault.gpu)) {
            // The fault's issuer died while blocked on the migration.
            _stats.quarantinedMessages.inc();
            continue;
        }
        serviceFault(fault);
    }
}

// --------------------------------------------------------------------
// Device-loss recovery
// --------------------------------------------------------------------

void
UvmDriver::onGpuUnplug(GpuId gpu)
{
    IDYLL_ASSERT(gpu < _cfg.numGpus, "unplug of unknown GPU ", gpu);
    IDYLL_ASSERT(!isDead(gpu), "GPU ", gpu, " already unplugged");
    const std::uint64_t bit = 1ull << gpu;
    _deadMask |= bit;
    _stats.gpusUnplugged.inc();

    const std::size_t w = _recoveries.size();
    RecoveryWindow win;
    win.gpu = gpu;
    win.startTick = _eq.now();
    _recoveries.push_back(win);
    _latestWindow[gpu] = static_cast<std::uint32_t>(w);

    // DRAIN: settle every in-flight migration's dependence on the dead
    // device. Sorted VPN order keeps the recovery deterministic.
    std::vector<Vpn> migVpns;
    migVpns.reserve(_migrations.size());
    _migrations.forEach(
        [&migVpns](Vpn vpn, const Migration &) { migVpns.push_back(vpn); });
    std::sort(migVpns.begin(), migVpns.end());
    for (Vpn vpn : migVpns) {
        Migration *found = _migrations.find(vpn);
        if (!found)
            continue; // torn down earlier in this loop
        Migration &op = *found;
        if (op.dest == gpu) {
            abortMigration(vpn, w);
            continue;
        }
        if (op.oldOwner == gpu && !op.transferStarted) {
            // The source died before the page copy started; pull the
            // data from host backing store instead.
            op.sourceHost = true;
        }
        if (op.dispatched && (op.expectedAckMask & bit) &&
            !(op.ackMask & bit)) {
            // The dead GPU can never ack, and its mappings died with
            // the device — self-satisfy its ack so the round drains.
            op.ackMask |= bit;
            _stats.invalSelfAcks.inc();
            if (op.ackMask == op.expectedAckMask) {
                if (_oracle)
                    _oracle->onInvalRoundComplete(vpn, op.round);
                IDYLL_TRACE(_tracer, InvalRoundDone, kHostId, vpn,
                            op.round);
            }
            maybeStartTransfer(vpn);
        }
    }

    // SCRUB: free the dead device's replica frames and clear its
    // directory presence so future rounds stop naming it.
    std::vector<Vpn> replicaVpns;
    _pages.forEach([&](Vpn vpn, const HostPage &page) {
        if (page.replicaOf(gpu))
            replicaVpns.push_back(vpn);
    });
    std::sort(replicaVpns.begin(), replicaVpns.end());
    for (Vpn vpn : replicaVpns)
        _gpuMem[gpu].release(existingPage(vpn).takeReplica(gpu));
    if (_dir) {
        std::vector<Vpn> ptVpns;
        ptVpns.reserve(_hostPt.validCount());
        _hostPt.forEachValid(
            [&](Vpn vpn, const Pte &) { ptVpns.push_back(vpn); });
        std::sort(ptVpns.begin(), ptVpns.end());
        for (Vpn vpn : ptVpns) {
            Pte *pte = _hostPt.find(vpn);
            if (pte && pte->valid())
                _dir->scrubDeadBit(*pte, gpu, _deadMask, vpn);
        }
    }
    if (_vmDir)
        _vmDir->scrubGpu(gpu, _deadMask);

    // ISOLATE: surviving GPUs may still cache translations that point
    // INTO the dead device's memory; any serve from one would read
    // unplugged hardware. Shoot them down immediately (a crash-path
    // action, not a timed invalidation round). Replica holders keep
    // their mappings: those frames live in the survivor's own memory
    // and feed the promotion below.
    std::vector<Vpn> deadHomed;
    _hostPt.forEachValid([&](Vpn vpn, const Pte &pte) {
        if (static_cast<GpuId>(ownerOf(pte.pfn())) == gpu)
            deadHomed.push_back(vpn);
    });
    std::sort(deadHomed.begin(), deadHomed.end());
    for (Vpn vpn : deadHomed) {
        const HostPage &page = hostPage(vpn);
        for (GpuId g = 0; g < _cfg.numGpus; ++g) {
            if (isDead(g) || page.replicaOf(g))
                continue;
            if (_gpus[g]->hasValidMapping(vpn)) {
                _gpus[g]->applyInstantInvalidation(vpn);
                _stats.orphanShootdowns.inc();
            }
        }
    }

    // RE-HOME: every page whose authoritative copy lived on the dead
    // device. A surviving read replica is promoted in place (no data
    // movement); otherwise the page re-faults from host backing store.
    std::vector<Vpn> lost;
    _hostPt.forEachValid([&](Vpn vpn, const Pte &pte) {
        if (static_cast<GpuId>(ownerOf(pte.pfn())) == gpu &&
            !_migrations.contains(vpn))
            lost.push_back(vpn);
    });
    std::sort(lost.begin(), lost.end());
    for (Vpn vpn : lost) {
        GpuId survivor = kInvalidGpu;
        // Ascending GPU order: the first alive holder has the lowest id.
        for (const HostPage::Replica &r : hostPage(vpn).replicas) {
            if (!isDead(r.gpu)) {
                survivor = r.gpu;
                break;
            }
        }
        if (survivor == kInvalidGpu) {
            rehomePage(vpn, w);
            continue;
        }
        // Promote the lowest-id surviving replica to primary: its
        // frame becomes the authoritative copy and its existing
        // read-only local mapping stays servable.
        const Pfn survivorPfn = existingPage(vpn).takeReplica(survivor);
        Pte *pte = _hostPt.find(vpn);
        _gpuMem[gpu].release(pte->pfn());
        Pte &fresh = _hostPt.install(vpn, survivorPfn, true);
        if (_dir)
            _dir->markAccess(fresh, survivor, vpn);
        if (_vmDir)
            _vmDir->setBit(vpn, survivor);
        if (_oracle)
            _oracle->onHostInstall(vpn, survivorPfn);
        ++_recoveries[w].promotedReplicas;
        _stats.replicasPromoted.inc();
    }

    if (_recoveries[w].pendingOps == 0)
        _recoveries[w].endTick = _eq.now();
    _eq.noteProgress();
}

void
UvmDriver::onGpuReattach(GpuId gpu)
{
    IDYLL_ASSERT(isDead(gpu), "reattach of GPU ", gpu, " which is alive");
    _deadMask &= ~(1ull << gpu);
    _stats.gpusReattached.inc();
    _eq.noteProgress();
}

void
UvmDriver::rehomePage(Vpn vpn, std::size_t windowIdx)
{
    IDYLL_ASSERT(!_migrations.contains(vpn), "re-home with a live migration");
    // Deterministic survivor choice that spreads the dead device's
    // working set across the remaining GPUs.
    std::vector<GpuId> survivors;
    for (GpuId g = 0; g < _cfg.numGpus; ++g)
        if (!isDead(g))
            survivors.push_back(g);
    IDYLL_ASSERT(!survivors.empty(), "no surviving GPU to re-home onto");
    const GpuId dest = survivors[vpn % survivors.size()];

    startMigration(vpn, dest, /*collapse=*/false);
    Migration *found = _migrations.find(vpn);
    IDYLL_ASSERT(found, "re-home migration refused");
    Migration &op = *found;
    op.recovery = true;
    op.sourceHost = true;
    op.recoveryWindow = static_cast<std::uint32_t>(windowIdx);
    RecoveryWindow &win = _recoveries[windowIdx];
    ++win.pendingOps;
    win.endTick = 0; // re-open if a racing fault arrived post-close
}

void
UvmDriver::abortMigration(Vpn vpn, std::size_t windowIdx)
{
    Migration *found = _migrations.find(vpn);
    IDYLL_ASSERT(found, "no migration to abort");
    Migration op = std::move(*found);
    _migrations.erase(vpn);
    _stats.abortedMigrations.inc();
    ++_recoveries[windowIdx].abortedMigrations;
    if (op.recovery)
        closePendingOp(op.recoveryWindow);

    // If the page's authoritative copy is (still) on a dead device,
    // restart as a host-sourced re-home so blocked faults from the
    // survivors can make progress.
    Pte *hpte = _hostPt.find(vpn);
    if (hpte && hpte->valid() &&
        isDead(static_cast<GpuId>(ownerOf(hpte->pfn())))) {
        rehomePage(vpn, op.recovery ? op.recoveryWindow : windowIdx);
    }

    // Replay the survivors' blocked faults; they re-block on the
    // restarted migration or resolve against the current host mapping.
    replayBlocked(std::move(op.blockedFaults));
}

void
UvmDriver::closePendingOp(std::size_t windowIdx)
{
    RecoveryWindow &win = _recoveries[windowIdx];
    IDYLL_ASSERT(win.pendingOps > 0, "recovery window op underflow");
    if (--win.pendingOps == 0) {
        win.endTick = _eq.now();
        _eq.noteProgress();
    }
}

void
UvmDriver::onMappingRegistered(GpuId gpu, Vpn vpn)
{
    if (isDead(gpu)) {
        _stats.quarantinedMessages.inc();
        return;
    }
    // Trans-FW installed a forwarded translation; record residency so
    // future migrations invalidate that GPU too. The update happens
    // off the critical path; we model it as an untimed host update.
    if (Pte *hpte = _hostPt.find(vpn); hpte && hpte->valid()) {
        if (_dir)
            _dir->markAccess(*hpte, gpu, vpn);
    }
    if (_vmDir)
        _vmDir->setBit(vpn, gpu);
}

std::size_t
UvmDriver::hostTasksQueued() const
{
    return _workers.queued();
}

void
UvmDriver::dumpDiagnostics(std::ostream &os) const
{
    os << "driver: " << _migrations.size() << " migration(s) in flight, "
       << _workers.queued() << " host task(s) queued";
    if (_deadMask)
        os << ", dead GPU mask 0x" << std::hex << _deadMask << std::dec
           << ", " << _recoveries.size() << " recovery window(s)";
    os << "\n";
    // In VPN order, so a report does not depend on table layout.
    std::vector<Vpn> vpns;
    _migrations.forEach(
        [&vpns](Vpn vpn, const Migration &) { vpns.push_back(vpn); });
    std::sort(vpns.begin(), vpns.end());
    for (Vpn vpn : vpns) {
        const Migration &op = *_migrations.find(vpn);
        os << "  vpn " << vpn << " -> gpu " << op.dest << " round "
           << op.round << " acks 0x" << std::hex << op.ackMask << "/0x"
           << op.expectedAckMask << std::dec
           << (op.hostWalkDone ? "" : " [host walk pending]")
           << (op.dispatched ? "" : " [invals not dispatched]")
           << (op.transferStarted ? " [transfer started]" : "")
           << ", " << op.blockedFaults.size() << " blocked fault(s)\n";
    }
}

} // namespace idyll
