#include "mirror.hh"

#include <algorithm>
#include <chrono>

#include "report.hh"

namespace perfbench
{

using idyll::TraceEvent;
using idyll::TraceOp;
using Clock = std::chrono::steady_clock;

namespace
{

/** Shadow network events are drained after this many sends. */
constexpr std::uint32_t kNetDrainEvery = 4096;

} // namespace

double
OpTime::nsPerCall() const
{
    return ratio(ns, static_cast<double>(calls));
}

OpTime &
OpTime::operator+=(const OpTime &o)
{
    calls += o.calls;
    ns += o.ns;
    return *this;
}

double
MirrorStats::tlbNs() const
{
    return tlbProbe.ns + tlbFill.ns + tlbShootdown.ns;
}

double
MirrorStats::agreeRatio() const
{
    return tlbProbe.calls ? static_cast<double>(probesAgreed) /
                                static_cast<double>(tlbProbe.calls)
                          : 1.0;
}

MirrorStats &
MirrorStats::operator+=(const MirrorStats &o)
{
    tlbProbe += o.tlbProbe;
    tlbFill += o.tlbFill;
    tlbShootdown += o.tlbShootdown;
    irmb += o.irmb;
    dir += o.dir;
    netSend += o.netSend;
    probesAgreed += o.probesAgreed;
    shootdownsUseful += o.shootdownsUseful;
    irmbBatches += o.irmbBatches;
    irmbBatchVpns += o.irmbBatchVpns;
    dirTargetLookups += o.dirTargetLookups;
    dirTargets += o.dirTargets;
    return *this;
}

double
clockReadNs()
{
    constexpr int kSamples = 2001;
    std::vector<double> deltas;
    deltas.reserve(kSamples);
    for (int i = 0; i < kSamples; ++i) {
        const auto t0 = Clock::now();
        const auto t1 = Clock::now();
        deltas.push_back(
            std::chrono::duration<double, std::nano>(t1 - t0).count());
    }
    return median(std::move(deltas));
}

MirrorSink::MirrorSink(const idyll::SystemConfig &cfg, double clockNs)
    : _cfg(cfg), _clockNs(clockNs), _layout(cfg.pageBits),
      _tlbs(cfg.numGpus), _irmbs(cfg.numGpus),
      _dir(cfg.numGpus, cfg.directoryBits), _eq(), _net(_eq, cfg)
{
}

template <typename F>
void
MirrorSink::timed(OpTime &op, F &&call)
{
    const auto t0 = Clock::now();
    call();
    const auto t1 = Clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count();
    ++op.calls;
    op.ns += std::max(0.0, ns - _clockNs);
}

idyll::TlbHierarchy &
MirrorSink::tlbs(idyll::GpuId gpu)
{
    auto &slot = _tlbs.at(gpu);
    if (!slot)
        slot = std::make_unique<idyll::TlbHierarchy>(_cfg);
    return *slot;
}

idyll::Irmb &
MirrorSink::irmb(idyll::GpuId gpu)
{
    auto &slot = _irmbs.at(gpu);
    if (!slot)
        slot = std::make_unique<idyll::Irmb>(_cfg.irmb, _layout);
    return *slot;
}

void
MirrorSink::record(const TraceEvent &e)
{
    switch (idyll::traceCategoryOf(e.op)) {
      case idyll::TraceCategory::Tlb:
        replayTlb(e);
        break;
      case idyll::TraceCategory::Irmb:
        replayIrmb(e);
        break;
      case idyll::TraceCategory::Directory:
        replayDir(e);
        break;
      case idyll::TraceCategory::Network:
        replayNet(e);
        break;
      case idyll::TraceCategory::Fault:
        if (e.op == TraceOp::MapInstall) {
            // Gpu::installMapping fills the shared L2 directly after
            // tracing the install; TlbHierarchy itself traces nothing.
            idyll::Tlb &l2 = tlbs(e.gpu).l2();
            const idyll::TlbEntry entry{e.a, e.b != 0};
            timed(_stats.tlbFill, [&] { l2.fill(e.vpn, entry); });
        }
        break;
      default:
        break;
    }
}

void
MirrorSink::replayTlb(const TraceEvent &e)
{
    idyll::TlbHierarchy &h = tlbs(e.gpu);
    const auto cu = static_cast<std::uint32_t>(e.a);
    switch (e.op) {
      case TraceOp::TlbHit:
      case TraceOp::TlbMiss: {
        idyll::TlbProbeResult res;
        timed(_stats.tlbProbe, [&] { res = h.probe(cu, e.vpn); });
        const std::uint64_t level =
            res.latency == _cfg.l1Tlb.lookupLatency ? 1 : 2;
        const bool agreed = e.op == TraceOp::TlbHit
                                ? res.hit && level == e.b
                                : !res.hit;
        _stats.probesAgreed += agreed ? 1 : 0;
        break;
      }
      case TraceOp::TlbFill: {
        // The trace carries no writable bit; it never decides a hit.
        const idyll::TlbEntry entry{e.b, true};
        timed(_stats.tlbFill, [&] { h.fill(cu, e.vpn, entry); });
        break;
      }
      case TraceOp::TlbShootdown:
        timed(_stats.tlbShootdown, [&] { h.shootdown(e.vpn); });
        _stats.shootdownsUseful += e.a > 0 ? 1 : 0;
        break;
      default: // TlbEvict: a side effect the replayed call repeats
        break;
    }
}

void
MirrorSink::replayIrmb(const TraceEvent &e)
{
    idyll::Irmb &buf = irmb(e.gpu);
    switch (e.op) {
      case TraceOp::IrmbEvict:
        ++_stats.irmbBatches;
        _stats.irmbBatchVpns += e.a;
        [[fallthrough]];
      case TraceOp::IrmbInsert:
      case TraceOp::IrmbMerge:
      case TraceOp::IrmbDup:
        timed(_stats.irmb, [&] { buf.insert(e.vpn); });
        break;
      case TraceOp::IrmbFlush: // emitted inside the preceding merge
        ++_stats.irmbBatches;
        _stats.irmbBatchVpns += e.a;
        break;
      case TraceOp::IrmbHit:
        timed(_stats.irmb, [&] { buf.lookup(e.vpn); });
        break;
      case TraceOp::IrmbElide:
        timed(_stats.irmb, [&] { buf.removeForNewMapping(e.vpn); });
        break;
      case TraceOp::IrmbDrain:
        ++_stats.irmbBatches;
        _stats.irmbBatchVpns += e.a;
        timed(_stats.irmb, [&] { buf.drainLru(); });
        break;
      default:
        break;
    }
}

void
MirrorSink::replayDir(const TraceEvent &e)
{
    idyll::Pte &pte = _ptes[e.vpn];
    switch (e.op) {
      case TraceOp::DirSet:
        timed(_stats.dir, [&] { _dir.markAccess(pte, e.gpu, e.vpn); });
        break;
      case TraceOp::DirClear:
        if (e.gpu == idyll::kHostId)
            timed(_stats.dir, [&] { _dir.clear(pte, e.vpn); });
        break;
      case TraceOp::DirTargets:
        timed(_stats.dir, [&] { _dir.targets(pte, e.vpn); });
        ++_stats.dirTargetLookups;
        _stats.dirTargets += e.b;
        break;
      default:
        break;
    }
}

void
MirrorSink::replayNet(const TraceEvent &e)
{
    const auto dst = static_cast<idyll::GpuId>(e.a);
    const auto cls = static_cast<idyll::MsgClass>(e.c);
    timed(_stats.netSend,
          [&] { _net.send(e.gpu, dst, e.b, cls, [] {}); });
    if (++_sendsSinceDrain >= kNetDrainEvery) {
        _eq.run();
        _sendsSinceDrain = 0;
    }
}

} // namespace perfbench
