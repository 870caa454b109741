/**
 * @file
 * GPU TLB hierarchy: per-CU fully-associative L1 TLBs and one shared
 * set-associative L2 TLB (Table 2 geometry), with LRU replacement.
 *
 * Probes are synchronous structural lookups that report the latency a
 * request accrued (1 cycle for an L1 hit, 1 + 10 cycles for anything
 * that reached the L2); the caller folds the latency into its own
 * event scheduling. Queuing only exists below the TLBs (MSHR/GMMU),
 * which is where the paper's contention lives.
 */

#ifndef IDYLL_TLB_TLB_HH
#define IDYLL_TLB_TLB_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/reuse_predictor.hh"
#include "cache/set_assoc.hh"
#include "mem/pte.hh"
#include "sim/config.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "sim/types.hh"
#include "tlb/residency.hh"
#include "tlb/subentry.hh"

namespace idyll
{

/** Cached translation. */
struct TlbEntry
{
    Pfn pfn = 0;
    bool writable = true;
};

/**
 * One TLB level.
 *
 * Backed by either a flat page-granular array (the default) or a
 * sub-entry-sharing array (cfg.subEntries > 1, shared-L2 mode), with
 * optional dead-entry-aware replacement on either backing store.
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &cfg) : _latency(cfg.lookupLatency)
    {
        if (cfg.deadEntryEviction)
            _pred = std::make_unique<ReusePredictor>();
        if (cfg.subEntries > 1) {
            _sub = std::make_unique<SubEntryTlbArray>(cfg);
            if (_pred)
                _sub->attachReusePredictor(_pred.get());
        } else {
            _flat.emplace(cfg.entries, cfg.ways);
            if (_pred)
                _flat->attachReusePredictor(_pred.get());
        }
    }

    /** Structural probe; the caller accounts for latency(). */
    std::optional<TlbEntry>
    probe(Vpn vpn, bool touch = true)
    {
        if (_sub) {
            if (auto hit = _sub->probe(vpn, touch)) {
                _hits.inc();
                return TlbEntry{hit->first, hit->second};
            }
        } else if (TlbEntry *e = _flat->lookup(vpn, touch)) {
            _hits.inc();
            return *e;
        }
        _misses.inc();
        return std::nullopt;
    }

    /**
     * Count a probe already known to miss (the caller's residency index
     * says the translation is absent) without scanning the tags. A miss
     * changes no replacement state, so this equals probe() returning
     * nullopt.
     */
    void countMiss() { _misses.inc(); }

    /** Whether @p vpn is resident; no stats or recency update. */
    bool
    contains(Vpn vpn) const
    {
        return _sub ? _sub->contains(vpn) : _flat->peek(vpn) != nullptr;
    }

    /**
     * Install a translation.
     * @param evictedOut    displaced VPNs are appended (a sub-entry
     *        block eviction can displace several at once).
     * @param evictedReused whether a displaced victim had been
     *        re-referenced since its fill (trace/training signal).
     */
    void
    fill(Vpn vpn, TlbEntry entry, std::vector<Vpn> &evictedOut,
         bool *evictedReused = nullptr)
    {
        if (_sub) {
            _sub->fill(vpn, entry.pfn, entry.writable, evictedOut,
                       evictedReused);
            return;
        }
        if (auto displaced = _flat->insert(vpn, entry, evictedReused))
            evictedOut.push_back(displaced->first);
    }

    /**
     * fill() of a translation the caller knows is absent (the L1
     * residency index proved it), skipping the tag scan. Page-granular
     * levels only.
     */
    void
    fillAbsent(Vpn vpn, TlbEntry entry, std::vector<Vpn> &evictedOut,
               bool *evictedReused)
    {
        IDYLL_ASSERT(!_sub, "fillAbsent on a sub-entry TLB");
        if (auto displaced = _flat->insertAbsent(vpn, entry, evictedReused))
            evictedOut.push_back(displaced->first);
    }

    /** Convenience fill. @return the first displaced VPN, if any. */
    std::optional<Vpn>
    fill(Vpn vpn, TlbEntry entry)
    {
        if (!_sub) {
            if (auto displaced = _flat->insert(vpn, entry))
                return displaced->first;
            return std::nullopt;
        }
        std::vector<Vpn> evicted;
        fill(vpn, entry, evicted);
        if (evicted.empty())
            return std::nullopt;
        return evicted.front();
    }

    /** Invalidate one translation. @return true if it was present. */
    bool
    shootdown(Vpn vpn)
    {
        return _sub ? _sub->shootdown(vpn) : _flat->erase(vpn);
    }

    void
    flushAll()
    {
        if (_sub)
            _sub->flushAll();
        else
            _flat->flushAll();
    }

    Cycles latency() const { return _latency; }
    const Counter &hits() const { return _hits; }
    const Counter &misses() const { return _misses; }

    std::uint32_t occupancy() const
    {
        return _sub ? _sub->occupancy() : _flat->occupancy();
    }

    std::uint32_t capacity() const
    {
        return _sub ? _sub->capacity() : _flat->capacity();
    }

    /** Sub-entry conflict fills (0 unless sub-entry mode). */
    std::uint64_t subConflicts() const
    {
        return _sub ? _sub->subConflicts().value() : 0;
    }

    /** Evictions whose victim was never re-referenced. */
    std::uint64_t deadEvictions() const
    {
        return _sub ? _sub->deadEvictions().value()
                    : _flat->deadEvictions().value();
    }

    /** Insertions demoted to LRU by a dead prediction. */
    std::uint64_t deadInsertions() const
    {
        return _sub ? _sub->deadInsertions().value()
                    : _flat->deadInsertions().value();
    }

    /** nullptr unless dead-entry eviction is enabled. */
    ReusePredictor *predictor() { return _pred.get(); }

    /** Visit every resident entry as fn(vpn, entry). */
    template <typename Fn>
    void forEachEntry(Fn fn) const
    {
        if (_sub) {
            _sub->forEach([&](Vpn vpn, Pfn pfn, bool writable) {
                fn(vpn, TlbEntry{pfn, writable});
            });
        } else {
            _flat->forEach(fn);
        }
    }

  private:
    /** Held inline: an L1 probe reaches the tags without a hop. */
    std::optional<SetAssocArray<Vpn, TlbEntry>> _flat;
    std::unique_ptr<SubEntryTlbArray> _sub;
    std::unique_ptr<ReusePredictor> _pred;
    Cycles _latency;
    Counter _hits;
    Counter _misses;
};

/** Outcome of a full hierarchy probe. */
struct TlbProbeResult
{
    bool hit = false;
    TlbEntry entry{};
    Cycles latency = 0; ///< cycles consumed by the probe(s)
};

/**
 * Per-GPU TLB hierarchy.
 *
 * An L1ResidencyIndex tracks which CUs' L1s hold each VPN, so a
 * shootdown visits only the L1s that hold the page and an L1 miss
 * skips the tag scan. L1 contents therefore change only through the
 * hierarchy (fill, probe's L2 refill, shootdown, flushAll); l1() is
 * read-only for that reason.
 */
class TlbHierarchy
{
  public:
    explicit TlbHierarchy(const SystemConfig &cfg);

    /**
     * Probe L1 then (on L1 miss) L2. On an L2 hit the entry is
     * refilled into the requesting CU's L1.
     */
    TlbProbeResult probe(std::uint32_t cu, Vpn vpn);

    /** Install a translation in L2 and the requesting CU's L1. */
    void fill(std::uint32_t cu, Vpn vpn, TlbEntry entry);

    /**
     * Shoot down one VPN in the L2 and in every L1 that holds it.
     * @return number of TLB entries invalidated.
     */
    std::uint32_t shootdown(Vpn vpn);

    /** Drop every cached translation (hot-unplug teardown). */
    void
    flushAll()
    {
        _l2.flushAll();
        for (Tlb &l1 : _l1s)
            l1.flushAll();
        _l1Residency.clear();
    }

    Tlb &l2() { return _l2; }
    const Tlb &l2() const { return _l2; }
    const Tlb &l1(std::uint32_t cu) const { return _l1s[cu]; }
    const L1ResidencyIndex &l1Residency() const { return _l1Residency; }
    std::uint32_t numCus() const
    {
        return static_cast<std::uint32_t>(_l1s.size());
    }

    /** Aggregate L1 hits/misses across CUs. */
    std::uint64_t l1Hits() const;
    std::uint64_t l1Misses() const;

    /** Attach the owning GPU's tracer for hit/miss/fill/evict events. */
    void
    setTracer(Tracer *tracer, GpuId gpu)
    {
        _tracer = tracer;
        _gpu = gpu;
    }

  private:
    /**
     * Fill CU @p cu's L1, which does not hold @p vpn, and keep the
     * residency index in step.
     */
    void fillL1(std::uint32_t cu, Vpn vpn, TlbEntry entry);

    std::vector<Tlb> _l1s;
    Tlb _l2;
    L1ResidencyIndex _l1Residency;
    /** Fill-eviction scratch, reused across calls (hot path). */
    std::vector<Vpn> _evictScratch;
    Tracer *_tracer = nullptr;
    GpuId _gpu = 0;
};

} // namespace idyll

#endif // IDYLL_TLB_TLB_HH
