#include "tlb/tlb.hh"

#include "sim/logging.hh"

namespace idyll
{

TlbHierarchy::TlbHierarchy(const SystemConfig &cfg)
    : _l2(cfg.l2Tlb), _l1Residency(cfg.cusPerGpu)
{
    _l1s.reserve(cfg.cusPerGpu);
    for (std::uint32_t cu = 0; cu < cfg.cusPerGpu; ++cu)
        _l1s.emplace_back(cfg.l1Tlb);
    // Room for every VPN the L1s can hold at once: the index never
    // rehashes during a run.
    _l1Residency.reserve(cfg.cusPerGpu * cfg.l1Tlb.entries);
}

TlbProbeResult
TlbHierarchy::probe(std::uint32_t cu, Vpn vpn)
{
    IDYLL_ASSERT(cu < _l1s.size(), "CU index out of range: ", cu);
    Tlb &l1 = _l1s[cu];
    // The index knows every L1 miss, so only a resident VPN pays for
    // the L1 tag scan.
    if (_l1Residency.holds(vpn, cu)) {
        auto entry = l1.probe(vpn);
        IDYLL_ASSERT(entry, "L1 residency index out of step: vpn ", vpn,
                     " cu ", cu);
        IDYLL_TRACE(_tracer, TlbHit, _gpu, vpn, cu, 1);
        return TlbProbeResult{true, *entry, l1.latency()};
    }
    l1.countMiss();

    const Cycles to_l2 = l1.latency() + _l2.latency();
    if (auto entry = _l2.probe(vpn)) {
        IDYLL_TRACE(_tracer, TlbHit, _gpu, vpn, cu, 2);
        // L2 hit: refill this CU's L1 on the response path.
        fillL1(cu, vpn, *entry);
        return TlbProbeResult{true, *entry, to_l2};
    }
    IDYLL_TRACE(_tracer, TlbMiss, _gpu, vpn, cu);
    return TlbProbeResult{false, {}, to_l2};
}

void
TlbHierarchy::fill(std::uint32_t cu, Vpn vpn, TlbEntry entry)
{
    IDYLL_ASSERT(cu < _l1s.size(), "CU index out of range: ", cu);
    IDYLL_TRACE(_tracer, TlbFill, _gpu, vpn, cu, entry.pfn);
    // The shared L2 is not owned by any CU; tagging its victims with
    // the filling CU misattributes them in Perfetto, so use kNoCu.
    _evictScratch.clear();
    bool reused = false;
    _l2.fill(vpn, entry, _evictScratch, &reused);
    for (Vpn evicted : _evictScratch) {
        IDYLL_TRACE(_tracer, TlbEvict, _gpu, evicted, kNoCu, 2,
                    reused ? 1 : 0);
    }
    if (_l1Residency.holds(vpn, cu)) {
        // Already resident: refreshed in place, nothing is displaced.
        _l1s[cu].fill(vpn, entry);
        return;
    }
    fillL1(cu, vpn, entry);
}

void
TlbHierarchy::fillL1(std::uint32_t cu, Vpn vpn, TlbEntry entry)
{
    _evictScratch.clear();
    bool reused = false;
    _l1s[cu].fillAbsent(vpn, entry, _evictScratch, &reused);
    for (Vpn evicted : _evictScratch) {
        _l1Residency.remove(evicted, cu);
        IDYLL_TRACE(_tracer, TlbEvict, _gpu, evicted, cu, 1,
                    reused ? 1 : 0);
    }
    _l1Residency.add(vpn, cu);
}

std::uint32_t
TlbHierarchy::shootdown(Vpn vpn)
{
    std::uint32_t removed = _l2.shootdown(vpn) ? 1 : 0;
    removed += _l1Residency.take(vpn, [&](std::uint32_t cu) {
        const bool held = _l1s[cu].shootdown(vpn);
        IDYLL_ASSERT(held, "L1 residency index out of step: vpn ", vpn,
                     " cu ", cu);
    });
    IDYLL_TRACE(_tracer, TlbShootdown, _gpu, vpn, removed);
    return removed;
}

std::uint64_t
TlbHierarchy::l1Hits() const
{
    std::uint64_t total = 0;
    for (const Tlb &l1 : _l1s)
        total += l1.hits().value();
    return total;
}

std::uint64_t
TlbHierarchy::l1Misses() const
{
    std::uint64_t total = 0;
    for (const Tlb &l1 : _l1s)
        total += l1.misses().value();
    return total;
}

} // namespace idyll
