#include "gpu/gpu.hh"

#include <ostream>

#include "sim/integrity.hh"
#include "sim/logging.hh"

namespace idyll
{

Gpu::Gpu(EventQueue &eq, const SystemConfig &cfg, GpuId id, Network &net,
         const AddrLayout &layout)
    : _eq(eq), _cfg(cfg), _id(id), _net(net), _layout(layout),
      _localPt(layout), _tlbs(cfg), _gmmu(eq, cfg.gmmu, layout, _localPt),
      _mshr(cfg.l2MshrEntries)
{
    if (cfg.invalApply == InvalApply::Lazy) {
        _irmb = std::make_unique<Irmb>(cfg.irmb, layout);
        if (cfg.irmb.idleDrain) {
            _gmmu.setIdleHook([this] {
                if (_dead)
                    return;
                if (auto batch = _irmb->drainLru();
                    batch && !batch->empty())
                    submitIrmbBatch(std::move(*batch));
            });
        }
    }
    if (cfg.transFw.enabled)
        _prt = std::make_unique<TransFwPrt>(cfg.transFw, id);
}

// --------------------------------------------------------------------
// Execution
// --------------------------------------------------------------------

void
Gpu::launch(std::vector<std::unique_ptr<CuStream>> streams, EventFn onDone)
{
    IDYLL_ASSERT(streams.size() == _cfg.cusPerGpu,
                 "expected ", _cfg.cusPerGpu, " streams, got ",
                 streams.size());
    _onDone = std::move(onDone);
    _cus.clear();
    _doneCus = 0;
    for (std::uint32_t i = 0; i < _cfg.cusPerGpu; ++i) {
        _cus.push_back(std::make_unique<ComputeUnit>(_eq, *this, i,
                                                     _cfg.warpsPerCu));
    }
    for (std::uint32_t i = 0; i < _cfg.cusPerGpu; ++i) {
        _cus[i]->start(std::move(streams[i]), [this] {
            if (++_doneCus == _cus.size()) {
                _finishTick = _eq.now();
                if (_onDone)
                    _onDone();
            }
        });
    }
}

// --------------------------------------------------------------------
// Helpers
// --------------------------------------------------------------------

bool
Gpu::hasValidMapping(Vpn vpn) const
{
    return !_dead && _localPt.findValid(vpn) && !pendingInvalid(vpn);
}

bool
Gpu::pendingInvalid(Vpn vpn) const
{
    if (_irmb && _irmb->contains(vpn))
        return true;
    auto it = _vpns.find(vpn);
    return it != _vpns.end() && it->second.writebackInFlight;
}

bool
Gpu::mshrWantsWrite(Vpn vpn) const
{
    const auto *waiters = _mshr.peekWaiters(vpn);
    if (!waiters)
        return false;
    for (const Waiter &w : *waiters)
        if (w.write)
            return true;
    return false;
}

// --------------------------------------------------------------------
// Access pipeline
// --------------------------------------------------------------------

void
Gpu::access(std::uint32_t cu, VAddr va, bool write, EventFn done)
{
    if (_dead)
        return; // the CU issuing this died with the device
    _stats.accesses.inc();
    const Vpn vpn = _layout.vpnOf(va);
    IDYLL_ASSERT(_driver, "GPU not connected to a driver");
    // Tallied locally; the harness replays totals into the driver at
    // quiesce (recordAccessBulk) — a per-access driver call would be
    // a cross-shard access on the hottest path in the model.
    VpnState &state = _vpns[vpn];
    ++state.accessTally;

    TlbProbeResult probe = _tlbs.probe(cu, vpn);
    if (probe.hit) {
        // Skipped while an install walk is in flight, as in
        // completeTranslation: the oracle's shadow state lags the PTE.
        if (_oracle && !(write && !probe.entry.writable) &&
            state.installsInFlight == 0)
            _oracle->onServeFromLocalPte(_id, vpn, probe.entry.pfn,
                                         write);
        if (write && !probe.entry.writable) {
            // Write to a read-only (replica) translation: permission
            // fault. Drop the stale translation and take the miss
            // path with a forced far fault.
            _stats.writePermissionFaults.inc();
            _tlbs.shootdown(vpn);
            IDYLL_LAT(_latency, begin(_id, RequestKind::Demand, _id, vpn,
                                      _eq.now()));
            Waiter w{cu, write, std::move(done), _eq.now() + probe.latency};
            _eq.schedule(probe.latency,
                         [this, cu, vpn, w = std::move(w)]() mutable {
                             handleL2Miss(cu, vpn, std::move(w), true);
                         });
            return;
        }
        dataAccess(cu, vpn, probe.entry.pfn, write, probe.latency,
                   std::move(done));
        return;
    }

    _stats.demandTlbMisses.inc();
    IDYLL_LAT(_latency,
              begin(_id, RequestKind::Demand, _id, vpn, _eq.now()));
    Waiter w{cu, write, std::move(done), _eq.now() + probe.latency};
    _eq.schedule(probe.latency,
                 [this, cu, vpn, w = std::move(w)]() mutable {
                     handleL2Miss(cu, vpn, std::move(w), false);
                 });
}

void
Gpu::handleL2Miss(std::uint32_t cu, Vpn vpn, Waiter waiter,
                  bool forceFault)
{
    if (_dead)
        return; // probe continuation outlived the device
    // Close the L1/L2 probe spans of a fresh miss (no-op for merged
    // secondaries and backlog re-entries, whose token moved on).
    IDYLL_LAT(_latency, demandMissProbed(_id, _id, vpn,
                                         _cfg.l1Tlb.lookupLatency,
                                         _eq.now()));
    if (_mshr.contains(vpn)) {
        _mshr.allocate(vpn, std::move(waiter)); // merge as secondary
        return;
    }
    if (_mshr.full()) {
        // Structural stall: hold the miss until an MSHR entry frees.
        _stats.mshrRetries.inc();
        IDYLL_LAT(_latency, enter(_id, RequestKind::Demand, _id, vpn,
                                  LatencyPhase::MshrWait, _eq.now()));
        _missBacklog.push_back(
            BackloggedMiss{cu, vpn, std::move(waiter), forceFault});
        return;
    }
    const bool wants_write = waiter.write;
    _mshr.allocate(vpn, std::move(waiter)); // primary
    IDYLL_LAT(_latency, enter(_id, RequestKind::Demand, _id, vpn,
                              LatencyPhase::IrmbProbe, _eq.now()));

    if (forceFault) {
        raiseFarFault(vpn, true, /*skipPrt=*/true);
        return;
    }

    // The IRMB is probed in parallel with the L2 TLB; a hit means the
    // local PTE is stale, so the walk is bypassed and the far fault
    // goes straight to the driver. So does a write-back in flight.
    const VpnState &state = _vpns[vpn];
    if ((_irmb && _irmb->lookup(vpn)) || state.writebackInFlight) {
        _stats.irmbBypassedWalks.inc();
        raiseFarFault(vpn, wants_write, /*skipPrt=*/false);
        return;
    }

    WalkRequest req;
    req.kind = WalkKind::Demand;
    req.vpn = vpn;
    const std::uint32_t epoch = state.invalEpoch;
    req.done = [this, vpn, epoch](const WalkResult &result) {
        onDemandWalkDone(vpn, epoch, result);
    };
    IDYLL_LAT(_latency, enter(_id, RequestKind::Demand, _id, vpn,
                              LatencyPhase::PtwQueue, _eq.now()));
    _gmmu.submit(std::move(req));
}

void
Gpu::onDemandWalkDone(Vpn vpn, std::uint32_t epoch,
                      const WalkResult &result)
{
    if (_dead)
        return; // walk completion outlived the device
    // The span since submit was queueWait + walkCycles: credit the
    // walk portion to LocalWalk, leaving the rest in PtwQueue.
    IDYLL_LAT(_latency, enter(_id, RequestKind::Demand, _id, vpn,
                              LatencyPhase::LocalWalk,
                              _eq.now() - result.walkCycles));
    (void)result;
    // Re-read the PTE at completion: an invalidation may have landed
    // while the walk was in flight. The epoch check additionally
    // catches the window where the invalidation was buffered in the
    // IRMB and then elided by a new mapping whose update walk has not
    // executed yet: the PTE still reads as the pre-invalidation
    // mapping, but serving it would be stale.
    const Pte *pte = _localPt.findValid(vpn);
    if (pte && !pendingInvalid(vpn) && _vpns[vpn].invalEpoch == epoch) {
        completeTranslation(vpn, pte->pfn(), pte->writable(),
                            /*requireFresh=*/true);
        return;
    }
    raiseFarFault(vpn, mshrWantsWrite(vpn), /*skipPrt=*/false);
}

void
Gpu::raiseFarFault(Vpn vpn, bool write, bool skipPrt)
{
    if (_dead)
        return;
    _stats.farFaultsRaised.inc();
    IDYLL_LAT(_latency, enter(_id, RequestKind::Demand, _id, vpn,
                              LatencyPhase::Network, _eq.now()));
    IDYLL_TRACE(_tracer, FaultRaised, _id, vpn, write);
    // A dead forwarding candidate can never reply, so the probe would
    // strand the fault; fall through to the host instead.
    if (_prt && !skipPrt) {
        if (auto candidate = _prt->probe(vpn);
            candidate && _net.reachable(*candidate)) {
            IDYLL_ASSERT(*candidate < _peers.size(), "bad PRT candidate");
            GpuItf *peer = _peers[*candidate];
            _net.send(_id, *candidate, 32, MsgClass::Control,
                      [peer, vpn, self = _id] {
                          peer->serveTransFwProbe(vpn, self);
                      });
            return;
        }
    }
    sendFaultToHost(vpn, write);
}

void
Gpu::sendFaultToHost(Vpn vpn, bool write)
{
    FaultRecord record{vpn, _id, write, _eq.now()};
    _net.send(_id, kHostId, 64, MsgClass::FarFault,
              [driver = _driver, record] { driver->onFarFault(record); });
}

void
Gpu::completeTranslation(Vpn vpn, Pfn pfn, bool writable,
                         bool requireFresh)
{
    if (_dead)
        return;
    if (!_mshr.contains(vpn))
        return; // already resolved by a racing path

    if (requireFresh &&
        (pendingInvalid(vpn) || !_localPt.findValid(vpn))) {
        // Superseded while we were completing: fault again.
        raiseFarFault(vpn, mshrWantsWrite(vpn), /*skipPrt=*/true);
        return;
    }
    // The serve check is skipped while an install walk is in flight:
    // the walker already wrote the (fresh) PTE at dispatch but the
    // done-callback that updates the oracle's shadow state has not
    // fired yet, so the shadow model lags the physical PTE.
    if (requireFresh && _oracle && _vpns[vpn].installsInFlight == 0)
        _oracle->onServeFromLocalPte(_id, vpn, pfn, /*write=*/false);
    releaseWaiters(vpn, pfn, writable, /*cache=*/true);
}

void
Gpu::releaseWaiters(Vpn vpn, Pfn pfn, bool writable, bool cache)
{
    std::vector<Waiter> waiters = _mshr.release(vpn);
    std::vector<Waiter> need_fault;
    const Tick now = _eq.now();
    for (Waiter &w : waiters) {
        if (w.write && !writable) {
            need_fault.push_back(std::move(w));
            continue;
        }
        if (cache)
            _tlbs.fill(w.cu, vpn, TlbEntry{pfn, writable});
        _stats.demandTlbMissLatency.sample(
            static_cast<double>(now - w.missStart));
        dataAccess(w.cu, vpn, pfn, w.write, 0, std::move(w.done));
    }
    if (!need_fault.empty()) {
        _stats.writePermissionFaults.inc();
        for (Waiter &w : need_fault)
            _mshr.allocate(vpn, std::move(w));
        raiseFarFault(vpn, true, /*skipPrt=*/true);
    } else {
        IDYLL_LAT(_latency,
                  finish(_id, RequestKind::Demand, _id, vpn, now));
    }
    drainMissBacklog();
}

void
Gpu::drainMissBacklog()
{
    while (!_missBacklog.empty()) {
        // Merging into a live entry is always possible; a new primary
        // needs a free MSHR slot.
        if (!_mshr.contains(_missBacklog.front().vpn) && _mshr.full())
            return;
        BackloggedMiss miss = std::move(_missBacklog.front());
        _missBacklog.pop_front();
        handleL2Miss(miss.cu, miss.vpn, std::move(miss.waiter),
                     miss.forceFault);
    }
}

void
Gpu::dataAccess(std::uint32_t cu, Vpn vpn, Pfn pfn, bool write,
                Cycles after, EventFn done)
{
    if (_dead)
        return;
    (void)write;
    const auto owner = static_cast<GpuId>(ownerOf(pfn));
    if (owner == _id) {
        _stats.localAccesses.inc();
        _eq.schedule(after + _cfg.localDramLatency, std::move(done));
        return;
    }
    IDYLL_ASSERT(owner < _cfg.numGpus,
                 "translation points at unknown device ", owner);

    if (!_net.reachable(owner)) {
        // The page's home died under this translation. Drop the stale
        // local state and retry the whole access after a link-latency
        // NACK; the retry far-faults and blocks in the driver until
        // recovery re-homes the page. Retries do not count as watchdog
        // progress, so a page that never recovers still trips it.
        _stats.deadHomeRetries.inc();
        _tlbs.shootdown(vpn);
        if (_localPt.invalidate(vpn))
            noteMappingDropped(vpn);
        _gmmu.mmuCache().invalidateVpn(vpn);
        if (_oracle)
            _oracle->onLocalDrop(_id, vpn);
        const VAddr va = vpn << _layout.pageBits;
        _eq.schedule(after + _cfg.interGpuLink.latency,
                     [this, cu, va, write,
                      done = std::move(done)]() mutable {
                         access(cu, va, write, std::move(done));
                     });
        return;
    }
    _stats.remoteAccesses.inc();

    // Remote accesses feed the page access counter; at the threshold
    // the GPU asks the driver to migrate the page (Section 3.3).
    if (_cfg.migrationPolicy == MigrationPolicy::AccessCounter &&
        !_cfg.pageReplication) {
        VpnState &state = _vpns[vpn];
        if (++state.accessCounter >= _cfg.accessCounterThreshold &&
            !state.migrationRequested) {
            state.migrationRequested = true;
            _stats.migRequestsSent.inc();
            _net.send(_id, kHostId, 32, MsgClass::MigrationReq,
                      [driver = _driver, vpn, self = _id] {
                          driver->onMigrationRequest(self, vpn);
                      });
        }
    }

    // Request goes out, the remote memory is read, the cacheline comes
    // back; the data is delivered to the CU uncached (Section 3.2).
    // Either leg of the round trip can observe the owner dying
    // mid-flight; the network fails such sends fast, so each leg
    // pre-checks reachability and NACK-retries the whole access (the
    // retry re-translates and takes the dead-home recovery path
    // above) instead of silently losing the CU's completion.
    const VAddr va = vpn << _layout.pageBits;
    auto nackRetry = [this, cu, va, write](EventFn cb) {
        _stats.deadHomeRetries.inc();
        _eq.schedule(_cfg.interGpuLink.latency,
                     [this, cu, va, write, cb = std::move(cb)]() mutable {
                         access(cu, va, write, std::move(cb));
                     });
    };
    auto remote_read = [this, owner, nackRetry,
                        done = std::move(done)]() mutable {
        if (!_net.reachable(owner)) {
            nackRetry(std::move(done));
            return;
        }
        _net.send(
            _id, owner, 32, MsgClass::RemoteData,
            [this, owner, nackRetry, done = std::move(done)]() mutable {
                _eq.schedule(
                    _cfg.localDramLatency,
                    [this, owner, nackRetry,
                     done = std::move(done)]() mutable {
                        if (!_net.reachable(owner)) {
                            nackRetry(std::move(done));
                            return;
                        }
                        _net.send(owner, _id, 64, MsgClass::RemoteData,
                                  std::move(done));
                    });
            });
    };
    if (after == 0)
        remote_read();
    else
        _eq.schedule(after, std::move(remote_read));
}

// --------------------------------------------------------------------
// Invalidations
// --------------------------------------------------------------------

void
Gpu::receiveInvalidation(Vpn vpn, std::uint32_t round)
{
    IDYLL_ASSERT(round > 0, "invalidation rounds start at 1");
    if (_dead)
        return; // delivery raced the unplug; the driver self-acks
    // Necessity is judged at receipt: did this GPU logically hold a
    // servable mapping when the invalidation landed? The verdict rides
    // on the ack so the driver never probes the GPU synchronously.
    const bool wasValid = hasValidMapping(vpn);
    // A duplicate (injected or retried after the ack raced the
    // timeout) must be a pure no-op beyond re-acking, or it would
    // perturb counters and epochs. The re-ack carries the verdict
    // remembered from the first delivery — by now the mapping is
    // gone, so re-probing would misclassify.
    VpnState &state = _vpns[vpn];
    if (round <= state.seenRound) {
        _stats.dupInvalsIgnored.inc();
        // Only re-ack an invalidation that has actually been applied.
        // If the first delivery's walk is still queued (walk-queue
        // backpressure), stay silent: the pending walk acks on
        // completion, and the driver's retry timer covers the case
        // where that ack is lost afterwards.
        if (state.seenApplied)
            sendInvalAck(vpn, round, state.seenWasValid);
        return;
    }
    state.seenRound = round;
    state.seenWasValid = wasValid;
    state.seenApplied = false;

    _stats.invalsReceived.inc();
    IDYLL_TRACE(_tracer, InvalRecv, _id, vpn, round);
    IDYLL_LAT(_latency, enter(_id, RequestKind::Invalidation, _id, vpn,
                              LatencyPhase::ShootdownStall,
                              _eq.now()));
    if (wasValid)
        _stats.invalsNecessary.inc();
    ++state.invalEpoch;
    if (_oracle)
        _oracle->recordEvent(ProtoEvent::InvalRecv, _id, vpn, round);

    // TLB shootdown is immediate in both the baseline and IDYLL.
    _stats.tlbShootdownHits.inc(_tlbs.shootdown(vpn));
    state.accessCounter = 0;
    state.migrationRequested = false;

    const Tick receipt = _eq.now();
    switch (_cfg.invalApply) {
      case InvalApply::ZeroLatency:
        if (_localPt.invalidate(vpn))
            noteMappingDropped(vpn);
        if (_oracle)
            _oracle->onLocalDrop(_id, vpn);
        markInvalApplied(vpn, round);
        sendInvalAck(vpn, round, wasValid);
        break;
      case InvalApply::Immediate: {
        WalkRequest req;
        req.kind = WalkKind::Invalidate;
        req.vpn = vpn;
        req.done = [this, vpn, round, wasValid,
                    receipt](const WalkResult &result) {
            if (_dead)
                return;
            IDYLL_LAT(_latency,
                      enter(_id, RequestKind::Invalidation, _id, vpn,
                            LatencyPhase::LocalWalk,
                            _eq.now() - result.walkCycles));
            // Close the fill race: any translation installed while the
            // invalidation walk ran is stale.
            _tlbs.shootdown(vpn);
            if (result.invalidated)
                noteMappingDropped(vpn);
            // Mirror the physical PTE: a newer mapping may have been
            // installed by an update walk that outran this callback,
            // in which case the local copy is live again and must not
            // be reported dropped.
            if (_oracle && !_localPt.findValid(vpn))
                _oracle->onLocalDrop(_id, vpn);
            _stats.invalApplyLatency.sample(
                static_cast<double>(_eq.now() - receipt));
            markInvalApplied(vpn, round);
            sendInvalAck(vpn, round, wasValid);
        };
        IDYLL_LAT(_latency, enter(_id, RequestKind::Invalidation, _id, vpn,
                                  LatencyPhase::PtwQueue, _eq.now()));
        _gmmu.submit(std::move(req));
        break;
      }
      case InvalApply::Lazy: {
        IDYLL_LAT(_latency, enter(_id, RequestKind::Invalidation, _id, vpn,
                                  LatencyPhase::IrmbProbe, _eq.now()));
        auto batch = _irmb->insert(vpn);
        if (_oracle)
            _oracle->onInvalBuffered(_id, vpn);
        if (batch && !batch->empty())
            submitIrmbBatch(std::move(*batch));
        // Buffering IS the apply under the lazy scheme: the IRMB hit
        // makes the mapping unservable from this point on.
        markInvalApplied(vpn, round);
        sendInvalAck(vpn, round, wasValid);
        // "When the page table walker is available, we invalidate the
        // LRU merged entry" (Section 6.3): with idle walkers and an
        // empty queue there is no contention to avoid, so write back
        // immediately.
        if (_cfg.irmb.idleDrain && _gmmu.hasIdleWalker() &&
            _gmmu.queueEmpty()) {
            if (auto lru = _irmb->drainLru(); lru && !lru->empty())
                submitIrmbBatch(std::move(*lru));
        }
        break;
      }
    }
}

void
Gpu::applyInstantInvalidation(Vpn vpn)
{
    if (_dead)
        return;
    ++_vpns[vpn].invalEpoch;
    _tlbs.shootdown(vpn);
    if (_localPt.invalidate(vpn))
        noteMappingDropped(vpn);
    // Instant shootdowns (zero-latency scheme, device-loss scrub)
    // bypass the walker, so flush the MMU caches here too.
    _gmmu.mmuCache().invalidateVpn(vpn);
    if (_oracle)
        _oracle->onLocalDrop(_id, vpn);
}

void
Gpu::markInvalApplied(Vpn vpn, std::uint32_t round)
{
    // An unplug since receipt reset seenRound: nothing to mark.
    VpnState &state = _vpns[vpn];
    if (state.seenRound == round)
        state.seenApplied = true;
}

void
Gpu::sendInvalAck(Vpn vpn, std::uint32_t round, bool wasValid)
{
    if (_dead)
        return;
    IDYLL_LAT(_latency, enter(_id, RequestKind::Invalidation, _id, vpn,
                              LatencyPhase::Network, _eq.now()));
    _net.send(_id, kHostId, 32, MsgClass::InvalAck,
              [driver = _driver, vpn, round, wasValid, self = _id] {
                  driver->onInvalAck(self, vpn, round, wasValid);
              });
}

void
Gpu::submitIrmbBatch(Irmb::Batch batch)
{
    IDYLL_ASSERT(!batch.empty(), "empty IRMB batch");
    if (!_cfg.irmb.batchedWriteback) {
        // Ablation: retire the entry one PTE walk at a time.
        for (Vpn vpn : batch)
            submitSingleWriteback(vpn);
        return;
    }
    for (Vpn vpn : batch)
        _vpns[vpn].writebackInFlight = true;
    const Tick submitted = _eq.now();
    WalkRequest req;
    req.kind = WalkKind::BatchInvalidate;
    req.batch = batch;
    req.done = [this, batch = std::move(batch),
                submitted](const WalkResult &result) {
        if (_dead)
            return;
        const double share =
            static_cast<double>(_eq.now() - submitted) /
            static_cast<double>(batch.size());
        for (Vpn vpn : batch) {
            _vpns[vpn].writebackInFlight = false;
            _tlbs.shootdown(vpn); // close the fill race
            noteMappingDropped(vpn);
            if (_oracle) {
                // Mirror the physical PTE (see receiveInvalidation):
                // only report a drop if no newer mapping overwrote it.
                if (!_localPt.findValid(vpn))
                    _oracle->onLocalDrop(_id, vpn);
                _oracle->onInvalDrained(_id, vpn);
            }
            _stats.invalWritebackShare.sample(share);
        }
        (void)result;
    };
    _gmmu.submit(std::move(req));
}

void
Gpu::submitSingleWriteback(Vpn vpn)
{
    _vpns[vpn].writebackInFlight = true;
    const Tick submitted = _eq.now();
    WalkRequest req;
    req.kind = WalkKind::Invalidate;
    req.vpn = vpn;
    req.done = [this, vpn, submitted](const WalkResult &) {
        if (_dead)
            return;
        _vpns[vpn].writebackInFlight = false;
        _tlbs.shootdown(vpn);
        noteMappingDropped(vpn);
        if (_oracle) {
            if (!_localPt.findValid(vpn))
                _oracle->onLocalDrop(_id, vpn);
            _oracle->onInvalDrained(_id, vpn);
        }
        _stats.invalWritebackShare.sample(
            static_cast<double>(_eq.now() - submitted));
    };
    _gmmu.submit(std::move(req));
}

// --------------------------------------------------------------------
// Mapping installation
// --------------------------------------------------------------------

void
Gpu::receiveNewMapping(Vpn vpn, Pfn pfn, bool writable)
{
    if (_dead)
        return; // delivery raced the unplug
    VpnState &state = _vpns[vpn];
    state.accessCounter = 0;
    state.migrationRequested = false;
    if (_irmb && _irmb->removeForNewMapping(vpn)) {
        // The buffered invalidation is elided: the new mapping's
        // update walk supersedes the deferred PTE write-back.
        if (_oracle)
            _oracle->onInvalDrained(_id, vpn);
    }
    installMapping(vpn, pfn, writable);
}

void
Gpu::installMapping(Vpn vpn, Pfn pfn, bool writable)
{
    VpnState &state = _vpns[vpn];
    const std::uint32_t epoch = state.invalEpoch;
    ++state.installsInFlight;
    WalkRequest req;
    req.kind = WalkKind::Update;
    req.vpn = vpn;
    Pte pte;
    pte.setValid(true);
    pte.setPfn(pfn);
    pte.setWritable(writable);
    req.newPte = pte;
    req.done = [this, vpn, pfn, writable,
                epoch](const WalkResult &result) {
        if (_dead)
            return;
        IDYLL_LAT(_latency, enter(_id, RequestKind::Demand, _id, vpn,
                                  LatencyPhase::LocalWalk,
                                  _eq.now() - result.walkCycles));
        (void)result;
        VpnState &state = _vpns[vpn];
        // An unplug since dispatch zeroed the count.
        if (state.installsInFlight > 0)
            --state.installsInFlight;
        if (state.invalEpoch != epoch) {
            // Superseded while queued: the page moved on again. The
            // driver resolved the waiting accesses' fault BEFORE the
            // new invalidation, so they still retire with this
            // translation (guaranteeing forward progress under
            // migration ping-pong); it just never enters the TLBs or
            // stays in the page table.
            _localPt.invalidate(vpn);
            _gmmu.mmuCache().invalidateVpn(vpn);
            _tlbs.shootdown(vpn);
            if (_oracle)
                _oracle->onLocalDrop(_id, vpn);
            if (_mshr.contains(vpn))
                releaseWaiters(vpn, pfn, writable, /*cache=*/false);
            return;
        }
        // A buffered invalidation that predates this mapping (same
        // epoch) was submitted to the walker before this update, so
        // the final page-table state is this (newer) mapping.
        if (_oracle)
            _oracle->onLocalInstall(_id, vpn, pfn, writable);
        IDYLL_TRACE(_tracer, MapInstall, _id, vpn, pfn, writable);
        noteMappingInstalled(vpn);
        _tlbs.l2().fill(vpn, TlbEntry{pfn, writable});
        completeTranslation(vpn, pfn, writable, /*requireFresh=*/false);
    };
    IDYLL_LAT(_latency, enter(_id, RequestKind::Demand, _id, vpn,
                              LatencyPhase::PtwQueue, _eq.now()));
    _gmmu.submit(std::move(req));
}

// --------------------------------------------------------------------
// Trans-FW
// --------------------------------------------------------------------

void
Gpu::serveTransFwProbe(Vpn vpn, GpuId requester)
{
    if (_dead)
        return;
    _eq.schedule(_cfg.transFw.remoteLookupLatency,
                 [this, vpn, requester] {
                     if (_dead)
                         return;
                     std::optional<ForwardedMapping> mapping;
                     const Pte *pte = _localPt.findValid(vpn);
                     if (pte && !pendingInvalid(vpn)) {
                         mapping =
                             ForwardedMapping{pte->pfn(), pte->writable()};
                     }
                     IDYLL_ASSERT(requester < _peers.size(),
                                  "bad Trans-FW requester");
                     GpuItf *peer = _peers[requester];
                     _net.send(_id, requester, 64, MsgClass::Control,
                               [peer, vpn, mapping] {
                                   peer->receiveTransFwReply(vpn, mapping);
                               });
                 });
}

void
Gpu::receiveTransFwReply(Vpn vpn, std::optional<ForwardedMapping> mapping)
{
    if (_dead)
        return;
    if (_prt)
        _prt->confirm(mapping.has_value());
    if (!mapping) {
        _stats.transFwFallbacks.inc();
        sendFaultToHost(vpn, mshrWantsWrite(vpn));
        return;
    }
    _stats.transFwForwarded.inc();
    // Tell the driver we now hold this translation (off critical path)
    // so future migrations invalidate us too.
    _net.send(_id, kHostId, 32, MsgClass::Control,
              [driver = _driver, vpn, self = _id] {
                  driver->onMappingRegistered(self, vpn);
              });
    installMapping(vpn, mapping->pfn, mapping->writable);
}

// --------------------------------------------------------------------
// PRT maintenance hooks
// --------------------------------------------------------------------

void
Gpu::noteMappingInstalled(Vpn vpn)
{
    if (_mapInstalledHook)
        _mapInstalledHook(_id, vpn);
}

void
Gpu::noteMappingDropped(Vpn vpn)
{
    IDYLL_TRACE(_tracer, MapDrop, _id, vpn);
    if (_mapDroppedHook)
        _mapDroppedHook(_id, vpn);
}

void
Gpu::setTracer(Tracer *tracer)
{
    _tracer = tracer;
    _tlbs.setTracer(tracer, _id);
    _gmmu.setTracer(tracer, _id);
    if (_irmb)
        _irmb->setTracer(tracer, _id);
}

void
Gpu::setLatency(LatencyScoreboard *latency)
{
    _latency = latency;
    _gmmu.setLatency(latency, _id);
}

// --------------------------------------------------------------------
// Hot-unplug
// --------------------------------------------------------------------

void
Gpu::unplug()
{
    IDYLL_ASSERT(!_dead, "GPU ", _id, " unplugged twice");
    _dead = true;
    _retired = true;

    // Tear down everything that can hold a continuation or a
    // translation. Ordering: drop waiters first so nothing replays
    // against a half-torn-down device.
    _mshr.clear();
    _missBacklog.clear();
    _tlbs.flushAll();

    // Invalidate the local PT and tell the system each mapping is
    // gone, so peers' Trans-FW PRTs stop pointing at a corpse.
    std::vector<Vpn> vpns;
    vpns.reserve(_localPt.validCount());
    _localPt.forEachValid(
        [&vpns](Vpn vpn, const Pte &) { vpns.push_back(vpn); });
    for (Vpn vpn : vpns) {
        _localPt.invalidate(vpn);
        noteMappingDropped(vpn);
    }
    // The node-pointer caches die with the page table they point at.
    _gmmu.mmuCache().flushAll();

    if (_irmb)
        _irmb->scrubAll();
    // The access tally survives: the quiesce replay still counts the
    // accesses made before the unplug.
    for (auto &[vpn, state] : _vpns)
        state = VpnState{.accessTally = state.accessTally};
}

void
Gpu::reattach()
{
    IDYLL_ASSERT(_dead, "re-attaching a GPU that is not unplugged");
    _dead = false; // rejoins cold; _retired stays set (CUs are gone)
}

// --------------------------------------------------------------------
// Warm start + diagnostics
// --------------------------------------------------------------------

void
Gpu::prepopulateMapping(Vpn vpn, Pfn pfn, bool writable)
{
    _localPt.install(vpn, pfn, writable);
    if (_oracle)
        _oracle->onLocalInstall(_id, vpn, pfn, writable);
    noteMappingInstalled(vpn);
}

void
Gpu::dumpDiagnostics(std::ostream &os) const
{
    if (_dead) {
        os << "gpu " << _id << ": UNPLUGGED\n";
        return;
    }
    std::size_t writebacks = 0;
    for (const auto &[vpn, state] : _vpns)
        writebacks += state.writebackInFlight;
    os << "gpu " << _id << ": " << _doneCus << "/" << _cus.size()
       << " CUs done, mshr " << _mshr.size() << ", backlog "
       << _missBacklog.size() << ", walk queue " << _gmmu.queueDepth()
       << ", writebacks in flight " << writebacks;
    if (_irmb)
        os << ", irmb " << _irmb->pendingVpns() << " vpns";
    os << "\n";
}

} // namespace idyll
