#include "harness/system.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "sim/flat_vpn_map.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace idyll
{

namespace
{

/** Validate before any component constructor sees the config. */
SystemConfig
validated(SystemConfig cfg)
{
    cfg.validate();
    return cfg;
}

/**
 * How many event-core shards this run actually gets. The request is
 * clamped to one shard per device (host + GPUs); features that assume
 * a single serial queue fall back to 1 with a warning rather than an
 * error -- results are bit-identical either way, so serializing is
 * always safe.
 */
std::uint32_t
resolveShards(const SystemConfig &cfg)
{
    std::uint32_t shards = std::min(cfg.shards, cfg.numGpus + 1);
    if (shards <= 1)
        return 1;
    // Collect EVERY serialize reason, not just the first: a user
    // peeling features off a run to get it sharded should see the
    // whole list at once. The observability stack (latency scoreboard,
    // interval sampler, JSONL trace) shards natively since DESIGN.md
    // section 11 and no longer appears here.
    const IntegrityConfig &ic = cfg.integrity;
    std::vector<const char *> reasons;
    if (ic.oracle) {
        reasons.push_back("the translation oracle probes cross-device "
                          "state (still serial-only)");
    }
    if (!ic.unplugPlan.empty()) {
        reasons.push_back("unplug recovery tears down devices across "
                          "shards (still serial-only)");
    }
    if (ic.suppressInvalGpuForTest >= 0) {
        reasons.push_back("inval-suppression sabotage is serial-only");
    }
    if (cfg.transFw.enabled) {
        reasons.push_back("Trans-FW mirrors PRTs across devices "
                          "synchronously (still serial-only)");
    }
    if (!reasons.empty()) {
        std::ostringstream os;
        for (std::size_t i = 0; i < reasons.size(); ++i)
            os << (i ? "; " : "") << reasons[i];
        warn("--shards ", cfg.shards, " ignored: ", os.str(),
             "; running serial");
        return 1;
    }
    return shards;
}

} // namespace

MultiGpuSystem::MultiGpuSystem(SystemConfig cfg)
    : _cfg(validated(std::move(cfg))), _layout(_cfg.pageBits), _eq(),
      _net(_eq, _cfg), _driver(_eq, _cfg, _net, _layout)
{
    // Install the shard router before anything can schedule an event,
    // so the watchdog fan-out and delivery routing below see it.
    const std::uint32_t shards = resolveShards(_cfg);
    if (shards >= 2) {
        // The conservative lookahead window is bounded by the fastest
        // path a cross-shard message can take: the smaller of the
        // inter-GPU and host link one-way latencies.
        const Cycles lookahead = std::min(_cfg.interGpuLink.latency,
                                          _cfg.hostLink.latency);
        _sharder = std::make_unique<ShardScheduler>(
            _eq, shards, _cfg.numGpus, lookahead);
    }

    _metrics.addChild(_driver.stats());
    _gpus.reserve(_cfg.numGpus);
    for (GpuId id = 0; id < _cfg.numGpus; ++id) {
        _gpus.push_back(
            std::make_unique<Gpu>(_eq, _cfg, id, _net, _layout));
        _metrics.addChild(_gpus.back()->stats());
    }

    std::vector<GpuItf *> itfs;
    for (auto &gpu : _gpus)
        itfs.push_back(gpu.get());
    _driver.attachGpus(itfs);

    for (auto &gpu : _gpus) {
        gpu->connectDriver(&_driver);
        gpu->setPeers(itfs);
    }

    if (_cfg.transFw.enabled) {
        // Keep every other GPU's PRT in sync with mapping changes;
        // Trans-FW piggybacks these updates on existing traffic, so
        // they are modeled as untimed bookkeeping.
        auto installed = [this](GpuId holder, Vpn vpn) {
            for (auto &peer : _gpus)
                if (peer->id() != holder && peer->prt())
                    peer->prt()->record(holder, vpn);
        };
        auto dropped = [this](GpuId holder, Vpn vpn) {
            for (auto &peer : _gpus)
                if (peer->id() != holder && peer->prt())
                    peer->prt()->drop(holder, vpn);
        };
        for (auto &gpu : _gpus)
            gpu->setMappingHooks(installed, dropped);
    }

    const IntegrityConfig &ic = _cfg.integrity;
    if (ic.oracle) {
        _oracle = std::make_unique<TranslationOracle>(
            _eq, _cfg.numGpus, ic.traceDepth);
        _oracle->setIrmbProbe([this](GpuId g, Vpn vpn) {
            const Irmb *irmb = _gpus[g]->irmb();
            return irmb && irmb->contains(vpn);
        });
        _driver.setOracle(_oracle.get());
        for (auto &gpu : _gpus)
            gpu->setOracle(_oracle.get());
        // Oracle runs serialize, but violations still name the shard
        // that owns the offending GPU under the REQUESTED sharding, so
        // a failure reproduced with --oracle points back at the shard
        // a sharded run would have blamed.
        if (_cfg.shards >= 2)
            _oracle->setShardMap(
                std::min(_cfg.shards, _cfg.numGpus + 1));
    }
    if (!ic.faultPlan.empty()) {
        // validate() already vetted the syntax.
        auto plan = parseFaultPlan(ic.faultPlan);
        IDYLL_ASSERT(plan, "fault plan failed to parse after validate()");
        _injector =
            std::make_unique<FaultInjector>(std::move(*plan), _cfg.seed);
        _net.setFaultInjector(_injector.get());
    }
    if (!ic.unplugPlan.empty()) {
        // validate() already vetted the syntax and GPU ids.
        auto plan = parseUnplugPlan(ic.unplugPlan);
        IDYLL_ASSERT(plan, "unplug plan failed to parse after validate()");
        _faultDomain = std::make_unique<FaultDomainController>(
            _eq, std::move(*plan));
        _faultDomain->setUnplugHandler(
            [this](GpuId g) { handleUnplug(g); });
        _faultDomain->setReattachHandler(
            [this](GpuId g) { handleReattach(g); });
    }
    if (ic.watchdogMaxIdleEvents || ic.watchdogMaxIdleTicks) {
        _eq.configureWatchdog(
            ic.watchdogMaxIdleEvents, ic.watchdogMaxIdleTicks,
            [this](std::ostream &os) { dumpStallDiagnostics(os); });
    }

    if (!_cfg.trace.categories.empty()) {
        // validate() already vetted the category spec.
        const auto mask = parseTraceCategories(_cfg.trace.categories);
        IDYLL_ASSERT(mask, "trace categories failed to parse after "
                           "validate()");
        _tracer = std::make_unique<Tracer>(_eq, *mask);
        _digestSink = std::make_unique<TraceDigestSink>();
        _tracer->addSink(_digestSink.get());
        if (!_cfg.trace.jsonlPath.empty()) {
            _jsonlSink =
                std::make_unique<JsonlTraceSink>(_cfg.trace.jsonlPath);
            _jsonlSink->enableSharding(shards);
            _tracer->addSink(_jsonlSink.get());
        }
        _net.setTracer(_tracer.get());
        _driver.setTracer(_tracer.get());
        for (auto &gpu : _gpus)
            gpu->setTracer(_tracer.get());
    }

    if (_cfg.latency.enabled) {
        // Mutations go through the per-node op log (latency.hh): the
        // same deterministic merge runs serial and sharded, so the
        // scoreboard output is bit-identical for any --shards value.
        _latency = std::make_unique<LatencyScoreboard>(_eq, _cfg.numGpus);
        // A broken sum invariant means some phase transition lost or
        // double-counted cycles: dump the protocol state before dying.
        _latency->setViolationHandler([this](const std::string &msg) {
            std::ostringstream os;
            dumpStallDiagnostics(os);
            panic("latency scoreboard invariant violated: ", msg, "\n",
                  os.str());
        });
        _driver.setLatency(_latency.get());
        for (auto &gpu : _gpus)
            gpu->setLatency(_latency.get());
    }

    if (_cfg.sampler.everyCycles > 0) {
        _sampler = std::make_unique<IntervalSampler>(
            _eq, _cfg.sampler.everyCycles, _cfg.sampler.maxRecords);
        for (auto &ptr : _gpus) {
            Gpu *gpu = ptr.get();
            const GpuId id = gpu->id();
            const std::string p = "gpu" + std::to_string(id) + ".";
            _sampler->addChannel(p + "walkersBusy", id, [gpu] {
                return static_cast<std::uint64_t>(
                    gpu->gmmu().busyWalkers());
            });
            _sampler->addChannel(p + "walkQueue", id, [gpu] {
                return static_cast<std::uint64_t>(
                    gpu->gmmu().queueDepth());
            });
            _sampler->addChannel(p + "mshr", id, [gpu] {
                return static_cast<std::uint64_t>(gpu->mshrOccupancy());
            });
            _sampler->addChannel(p + "missBacklog", id, [gpu] {
                return static_cast<std::uint64_t>(
                    gpu->missBacklogDepth());
            });
            if (gpu->irmb()) {
                _sampler->addChannel(p + "irmbPending", id, [gpu] {
                    return static_cast<std::uint64_t>(
                        gpu->irmb()->pendingVpns());
                });
            }
        }
        _sampler->addChannel("driver.migrations", kHostId, [this] {
            return static_cast<std::uint64_t>(
                _driver.migrationsInFlight());
        });
        _sampler->addChannel("driver.hostQueue", kHostId, [this] {
            return static_cast<std::uint64_t>(_driver.hostTasksQueued());
        });
        // Link occupancy lives in per-shard signed slices; summed
        // channels reassemble the global value at the merge (and the
        // single serial slice already IS the total).
        _net.setOccupancyTracking(true);
        _sampler->addSummedChannel("net.nvlinkBytes", kHostId, [this] {
            return _net.inFlightShardSlice(false);
        });
        _sampler->addSummedChannel("net.pcieBytes", kHostId, [this] {
            return _net.inFlightShardSlice(true);
        });
    }

    // Rendezvous hooks: drain the per-shard observability buffers on
    // the main thread while every worker is parked at the barrier.
    if (_sharder) {
        if (_latency) {
            _sharder->addRendezvousHook(
                [this] { _latency->flushOps(); });
        }
        if (_jsonlSink) {
            _sharder->addRendezvousHook(
                [this] { _jsonlSink->mergeWindow(); });
        }
    }

    if (_cfg.progressSecs > 0.0) {
        _progressEpoch = std::chrono::steady_clock::now();
        _nextProgress = _progressEpoch +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(
                                _cfg.progressSecs));
        if (_sharder)
            _sharder->addRendezvousHook([this] { emitProgress(); });
        else
            _eq.setProgressHook([this] { emitProgress(); });
    }
}

void
MultiGpuSystem::emitProgress()
{
    const auto now = std::chrono::steady_clock::now();
    if (now < _nextProgress)
        return;
    _nextProgress = now + std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(_cfg.progressSecs));

    std::uint64_t executed = 0;
    Tick tick = 0;
    std::uint32_t stalled = 0;
    if (_sharder) {
        for (std::uint32_t s = 0; s < _sharder->shardCount(); ++s) {
            const auto &st = _sharder->shardStats(s);
            executed += st.executed.value();
            tick = std::max<Tick>(tick, st.lastTick.value());
            if (st.executed.value() == 0)
                ++stalled;
        }
    } else {
        executed = _eq.executed();
        tick = _eq.now();
    }

    const double secs =
        std::chrono::duration<double>(now - _progressEpoch).count();
    std::ostringstream os;
    os << "progress: tick=" << tick << " events=" << executed;
    if (secs > 0.0 && executed >= _lastProgressExecuted) {
        const double rate =
            static_cast<double>(executed - _lastProgressExecuted) / secs;
        os << " rate=" << static_cast<std::uint64_t>(rate) << "/s";
    }
    if (_sharder) {
        os << " shards=" << _sharder->shardCount()
           << " windows=" << _sharder->windows();
        if (stalled)
            os << " idleShards=" << stalled;
    }
    std::cerr << os.str() << "\n";
    _progressEpoch = now;
    _lastProgressExecuted = executed;
}

void
MultiGpuSystem::launch(const Workload &workload)
{
    IDYLL_ASSERT(!_ran, "MultiGpuSystem is single-shot; build a new one");
    _ran = true;

    if (_cfg.prepopulate == Prepopulate::HomeShard) {
        const std::uint64_t pages = workload.params().footprintPages;
        for (std::uint64_t page = 0; page < pages; ++page) {
            const Vpn vpn = kWorkloadBaseVpn + page;
            const GpuId home = workload.homeOf(page, _cfg.numGpus);
            const Pfn pfn = _driver.prepopulatePage(vpn, home);
            _gpus[home]->prepopulateMapping(vpn, pfn);
        }
    }

    for (auto &gpu : _gpus) {
        // Initial CU events must land on the queue of the shard that
        // owns the GPU, not on the root queue this thread defaults to.
        std::optional<ShardScope> scope;
        if (_sharder) {
            const std::uint32_t s = _sharder->shardOfNode(gpu->id());
            scope.emplace(_sharder->shardQueue(s), s);
        }
        gpu->launch(workload.buildStreams(gpu->id(), _cfg, _layout));
    }
    if (_sampler)
        _sampler->start();
    if (_faultDomain)
        _faultDomain->start();
}

void
MultiGpuSystem::handleUnplug(GpuId gpu)
{
    // Recovery runs a burst of zero-progress bookkeeping; don't let
    // the watchdog mistake it for a stall.
    _eq.noteProgress();
    // Order matters: the fabric drops new sends first, then the device
    // tears down, then bookkeeping layers observe the death, and the
    // driver (which may immediately start re-home traffic to the
    // survivors) goes last.
    _net.markUnreachable(gpu);
    _gpus[gpu]->unplug();
    if (_latency)
        _latency->abortAllForGpu(gpu);
    if (_oracle)
        _oracle->onGpuUnplug(gpu);
    _driver.onGpuUnplug(gpu);
    auditQuarantine(gpu);
}

void
MultiGpuSystem::handleReattach(GpuId gpu)
{
    _eq.noteProgress();
    _net.markReachable(gpu);
    _driver.onGpuReattach(gpu);
    if (_oracle)
        _oracle->onGpuReattach(gpu);
    _gpus[gpu]->reattach();
}

void
MultiGpuSystem::auditQuarantine(GpuId gpu) const
{
    const Gpu &dead = *_gpus[gpu];
    RadixPageTable &pt = const_cast<Gpu &>(dead).localPageTable();
    IDYLL_ASSERT(pt.validCount() == 0, "gpu ", gpu, " leaked ",
                 pt.validCount(), " local PTE(s) past quarantine");
    if (const Irmb *irmb = dead.irmb()) {
        IDYLL_ASSERT(irmb->pendingVpns() == 0, "gpu ", gpu, " leaked ",
                     irmb->pendingVpns(), " IRMB vpn(s) past quarantine");
    }
    std::uint64_t tlbEntries = 0;
    const TlbHierarchy &tlbs = const_cast<Gpu &>(dead).tlbs();
    tlbs.l2().forEachEntry(
        [&](Vpn, const TlbEntry &) { ++tlbEntries; });
    for (std::uint32_t cu = 0; cu < tlbs.numCus(); ++cu) {
        tlbs.l1(cu).forEachEntry(
            [&](Vpn, const TlbEntry &) { ++tlbEntries; });
    }
    IDYLL_ASSERT(tlbEntries == 0, "gpu ", gpu, " leaked ", tlbEntries,
                 " TLB entr(ies) past quarantine");
}

SimResults
MultiGpuSystem::finish(const std::string &app)
{
    IDYLL_ASSERT(_ran, "finish() before launch()");
    IDYLL_ASSERT(!_finished, "finish() called twice");
    _finished = true;

    if (_sampler) {
        _sampler->finalize();
        if (!_cfg.sampler.jsonPath.empty()) {
            std::ofstream os(_cfg.sampler.jsonPath);
            if (os)
                os << _sampler->toJson() << "\n";
            else
                warn("cannot write sample file ", _cfg.sampler.jsonPath);
        }
    }

    for (auto &gpu : _gpus) {
        if (!gpu->allCusDone()) {
            dumpStallDiagnostics(std::cerr);
            panic("GPU ", gpu->id(), " stalled: event queue drained "
                  "with unfinished CUs");
        }
    }
    if (_oracle) {
        _oracle->finalize();
        verifyFinalTlbState();
    }
    if (_tracer)
        _tracer->flush();

    // Quiesce-time folding: per-shard stat lanes collapse into the
    // canonical (registered) lane-0 objects. The fold is order-
    // independent, so it cannot perturb serial-vs-sharded identity.
    _net.foldStats();
    if (_injector)
        _injector->foldStats();

    return collectResults(app);
}

SimResults
MultiGpuSystem::run(const Workload &workload)
{
    launch(workload);
    if (_cfg.hostStats) {
        const auto start = std::chrono::steady_clock::now();
        _eq.run();
        _hostSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
    } else {
        _eq.run();
    }
    return finish(workload.name());
}

void
MultiGpuSystem::verifyFinalTlbState() const
{
    for (const auto &gpu : _gpus) {
        RadixPageTable &pt = const_cast<Gpu &>(*gpu).localPageTable();
        const auto check = [&](const char *level, Vpn vpn,
                               const TlbEntry &entry) {
            const Pte *pte = pt.findValid(vpn);
            if (pte && pte->pfn() == entry.pfn)
                return;
            panic("stale ", level, " TLB entry on gpu ", gpu->id(),
                  ": vpn ", vpn, " -> pfn ", entry.pfn,
                  pte ? " (local PTE points elsewhere)"
                      : " (no valid local PTE)");
        };
        const TlbHierarchy &tlbs = const_cast<Gpu &>(*gpu).tlbs();
        tlbs.l2().forEachEntry([&](Vpn vpn, const TlbEntry &entry) {
            check("L2", vpn, entry);
        });
        for (std::uint32_t cu = 0; cu < tlbs.numCus(); ++cu) {
            tlbs.l1(cu).forEachEntry(
                [&](Vpn vpn, const TlbEntry &entry) {
                    check("L1", vpn, entry);
                });
        }
    }
}

std::uint64_t
MultiGpuSystem::translationStateDigest() const
{
    // XOR of per-mapping hashes: insensitive to traversal order.
    std::uint64_t digest = 0x9E3779B97F4A7C15ull;
    auto &pt = const_cast<UvmDriver &>(_driver).hostPageTable();
    pt.forEachValid([&](Vpn vpn, const Pte &pte) {
        std::uint64_t h = mix64(vpn);
        h = mix64(h ^ pte.pfn());
        h = mix64(h ^ (pte.writable() ? 0x2ull : 0x1ull));
        digest ^= h;
    });
    return digest;
}

void
MultiGpuSystem::dumpStallDiagnostics(std::ostream &os) const
{
    for (const auto &gpu : _gpus)
        gpu->dumpDiagnostics(os);
    _driver.dumpDiagnostics(os);
    if (_oracle) {
        os << "last protocol events:\n";
        _oracle->trace().dump(os);
    }
}

SimResults
MultiGpuSystem::collectResults(const std::string &app) const
{
    SimResults r;
    r.app = app;
    r.scheme = schemeName(_cfg);

    for (const auto &gpu : _gpus) {
        r.execTicks = std::max(r.execTicks, gpu->finishTick());
        const GpuStats &gs = gpu->stats();
        r.instructions += gs.instructions.value();
        r.accesses += gs.accesses.value();
        r.localAccesses += gs.localAccesses.value();
        r.remoteAccesses += gs.remoteAccesses.value();

        const auto &tlbs = const_cast<Gpu &>(*gpu).tlbs();
        r.l1Hits += tlbs.l1Hits();
        r.l1Misses += tlbs.l1Misses();
        r.l2Hits += tlbs.l2().hits().value();
        r.l2Misses += tlbs.l2().misses().value();

        r.demandTlbMisses += gs.demandTlbMisses.value();
        r.demandMissLatencyTotal += gs.demandTlbMissLatency.sum();
        r.farFaults += gs.farFaultsRaised.value();
        r.transFwForwarded += gs.transFwForwarded.value();

        const GmmuStats &ms = const_cast<Gpu &>(*gpu).gmmu().stats();
        r.demandWalks += ms.demandWalks.value();
        r.invalWalks += ms.invalWalks.value();
        r.updateWalks += ms.updateWalks.value();
        r.busyDemandCycles += ms.busyDemandCycles.value();
        r.busyInvalCycles += ms.busyInvalCycles.value();

        auto &mmuCache = const_cast<Gpu &>(*gpu).gmmu().mmuCache();
        r.pwcHits += mmuCache.hits().value();
        r.pwcMisses += mmuCache.misses().value();
        r.pwcStaleDrops += mmuCache.staleDrops();
        const std::uint32_t cachedLevels = mmuCache.numCachedLevels();
        if (r.mmuCacheLevelHits.size() < cachedLevels) {
            r.mmuCacheLevelHits.resize(cachedLevels, 0);
            r.mmuCacheLevelMisses.resize(cachedLevels, 0);
        }
        for (std::uint32_t lvl = 1; lvl <= cachedLevels; ++lvl) {
            const auto &ls = mmuCache.levelStats(lvl);
            r.mmuCacheLevelHits[lvl - 1] += ls.hits.value();
            r.mmuCacheLevelMisses[lvl - 1] += ls.misses.value();
        }
        r.walkQueueFullStalls += ms.queueFullStalls.value();
        r.l2SubConflicts += tlbs.l2().subConflicts();
        r.l2DeadEvictions += tlbs.l2().deadEvictions();

        r.invalServiceLatencyTotal += gs.invalApplyLatency.sum();
        r.invalServiceLatencyTotal += gs.invalWritebackShare.sum();

        if (const Irmb *irmb = gpu->irmb()) {
            const IrmbStats &is = irmb->stats();
            r.irmbInserts += is.inserts.value();
            r.irmbLookupHits += is.lookupHits.value();
            r.irmbElided += is.elided.value();
            r.irmbWrittenBack += is.writtenBack.value();
            r.irmbEvictions +=
                is.baseEvictions.value() + is.offsetFlushes.value();
        }
    }

    const DriverStats &ds = _driver.stats();
    r.invalSent = ds.invalSent.value();
    r.invalNecessary = ds.invalNecessary.value();
    r.invalUnnecessary = ds.invalUnnecessary.value();
    r.migrationRequests = ds.migrationRequests.value();
    r.migrations = ds.migrations.value();
    r.migrationWaitAvg = ds.migrationWait.mean();
    r.migrationWaitTotal = ds.migrationWait.sum();
    r.migrationTotalAvg = ds.migrationTotal.mean();
    r.faultResolveLatencyAvg = ds.faultResolveLatency.mean();

    if (const VmDirectory *vm = _driver.vmDirectory()) {
        r.vmCacheHits = vm->stats().cacheHits.value();
        r.vmCacheMisses = vm->stats().cacheMisses.value();
    }

    r.demandMissLatencyAvg =
        r.demandTlbMisses
            ? r.demandMissLatencyTotal / static_cast<double>(
                  r.demandTlbMisses)
            : 0.0;
    r.mpki = r.instructions
                 ? 1000.0 * static_cast<double>(r.l2Misses) /
                       static_cast<double>(r.instructions)
                 : 0.0;

    // Figure 4: accesses grouped by how many distinct GPUs touched
    // the page (index k = k+1 GPUs). Sums, so visiting order is moot.
    struct Sharing
    {
        std::uint64_t gpuMask = 0;
        std::uint64_t accesses = 0;
    };
    FlatVpnMap<Sharing> sharing;
    for (const auto &gpu : _gpus) {
        // A GPU visits its pages in hash order (FlatVpnMap::reserve).
        sharing.reserve(sharing.size() + gpu->trackedPages());
        gpu->forEachAccessTally([&](Vpn vpn, std::uint64_t count) {
            Sharing &page = sharing[vpn];
            page.gpuMask |= 1ull << gpu->id();
            page.accesses += count;
        });
    }
    r.sharingBuckets.assign(_cfg.numGpus, 0);
    sharing.forEach([&r](Vpn, const Sharing &page) {
        r.sharingBuckets[std::popcount(page.gpuMask) - 1] += page.accesses;
    });
    r.networkBytes = _net.totalBytes();

    if (_hostSeconds > 0.0) {
        r.hostSeconds = _hostSeconds;
        r.eventsExecuted = _eq.executed();
        r.eventsPerSec =
            static_cast<double>(r.eventsExecuted) / _hostSeconds;
    }

    // Shard telemetry rides the hostStats gate: like wall-clock
    // timings it describes the RUN, not the simulated system, and CI
    // diffs serialized results byte-for-byte across shard counts.
    if (_cfg.hostStats && _sharder) {
        const std::uint32_t n = _sharder->shardCount();
        std::uint64_t total = 0, maxExec = 0, stallTotal = 0;
        for (std::uint32_t s = 0; s < n; ++s) {
            const auto &st = _sharder->shardStats(s);
            total += st.executed.value();
            maxExec = std::max(maxExec, st.executed.value());
            stallTotal += st.stallWindows.value();
        }
        const double mean = static_cast<double>(total) / n;
        r.shardImbalancePct =
            mean > 0.0
                ? 100.0 * (static_cast<double>(maxExec) - mean) / mean
                : 0.0;
        const std::uint64_t windows = _sharder->windows();
        r.lookaheadStallPct =
            windows ? 100.0 * static_cast<double>(stallTotal) /
                          (static_cast<double>(windows) * n)
                    : 0.0;
        std::ostringstream os;
        os << "{\"shards\":" << n << ",\"windows\":" << windows
           << ",\"lookahead\":" << _sharder->lookahead()
           << ",\"perShard\":[";
        for (std::uint32_t s = 0; s < n; ++s) {
            const auto &st = _sharder->shardStats(s);
            os << (s ? "," : "") << "{\"shard\":" << s
               << ",\"lastTick\":" << st.lastTick.value()
               << ",\"executed\":" << st.executed.value()
               << ",\"stallWindows\":" << st.stallWindows.value()
               << ",\"depositsIn\":" << st.depositsIn.value()
               << ",\"depositsOut\":" << st.depositsOut.value()
               << "}";
        }
        os << "]}";
        r.shardTelemetryJson = os.str();
    }

    if (_digestSink)
        r.traceDigest = _digestSink->canonicalLine();
    r.metricsJson = _metrics.toJson();

    if (_latency) {
        r.latDemandCount = _latency->finished(RequestKind::Demand);
        r.latDemandCycles = _latency->totalCycles(RequestKind::Demand);
        r.latInvalCount = _latency->finished(RequestKind::Invalidation);
        r.latInvalCycles =
            _latency->totalCycles(RequestKind::Invalidation);
        for (std::uint32_t p = 0; p < kNumLatencyPhases; ++p) {
            const auto phase = static_cast<LatencyPhase>(p);
            r.latDemandPhaseCycles.push_back(
                _latency->phaseCycles(RequestKind::Demand, phase));
            r.latInvalPhaseCycles.push_back(
                _latency->phaseCycles(RequestKind::Invalidation, phase));
        }
        r.latencyJson = _latency->toJson();
    }
    if (_sampler)
        r.samplesJson = _sampler->toJson();
    return r;
}

void
MultiGpuSystem::dumpStats(std::ostream &os) const
{
    _metrics.dump(os);
    if (_sharder)
        _sharder->metrics().dump(os, _metrics.name());
}

std::string
schemeName(const SystemConfig &cfg)
{
    if (cfg.pageReplication)
        return cfg.invalApply == InvalApply::Lazy ? "Replication+Lazy"
                                                  : "Replication";
    std::string name;
    switch (cfg.invalFilter) {
      case InvalFilter::Broadcast:
        name = "Broadcast";
        break;
      case InvalFilter::InPteDirectory:
        name = "InPTE";
        break;
      case InvalFilter::InMemDirectory:
        name = "InMem";
        break;
    }
    switch (cfg.invalApply) {
      case InvalApply::Immediate:
        break;
      case InvalApply::Lazy:
        name += "+Lazy";
        break;
      case InvalApply::ZeroLatency:
        name += "+ZeroLat";
        break;
    }
    if (cfg.invalFilter == InvalFilter::Broadcast &&
        cfg.invalApply == InvalApply::Immediate)
        name = "Baseline";
    if (cfg.invalFilter == InvalFilter::InPteDirectory &&
        cfg.invalApply == InvalApply::Lazy)
        name = "IDYLL";
    if (cfg.invalFilter == InvalFilter::InMemDirectory &&
        cfg.invalApply == InvalApply::Lazy)
        name = "IDYLL-InMem";
    if (cfg.transFw.enabled)
        name += "+TransFW";
    return name;
}

} // namespace idyll
