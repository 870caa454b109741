/**
 * @file
 * Sub-entry-sharing TLB array (opt-in shared-L2 mode).
 *
 * One tag covers a naturally aligned block of `subEntries` consecutive
 * virtual pages whose translations are physically contiguous: the
 * block anchors a base PFN at fill time and a translation is present
 * iff its validity bit is set, in which case its PFN is
 * `basePfn + slot` by construction. This is the classic sub-entry /
 * coalesced-TLB trick — contiguous mappings (the common case right
 * after a region migrates wholesale) share one tag, multiplying the
 * reach of the same SRAM budget.
 *
 * A fill whose PFN breaks the block's contiguity re-anchors the block
 * to the new translation and drops the ones it was sharing with (a
 * sub-entry conflict, counted); the evicted VPNs are reported so the
 * hierarchy can trace them like any other eviction.
 *
 * Replacement is block-granular via the underlying SetAssocArray, so
 * plain LRU and the dead-entry-aware mode both apply unchanged.
 */

#ifndef IDYLL_TLB_SUBENTRY_HH
#define IDYLL_TLB_SUBENTRY_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "cache/reuse_predictor.hh"
#include "cache/set_assoc.hh"
#include "mem/pte.hh"
#include "sim/config.hh"
#include "sim/metrics.hh"
#include "sim/types.hh"

namespace idyll
{

struct TlbEntry;

/** Block-tagged array of sub-entry-shared translations. */
class SubEntryTlbArray
{
  public:
    explicit SubEntryTlbArray(const TlbConfig &cfg)
        : _sub(cfg.subEntries), _slotMask(cfg.subEntries - 1),
          _shift(static_cast<std::uint32_t>(
              std::countr_zero(cfg.subEntries))),
          _blocks(cfg.entries / cfg.subEntries,
                  std::min(cfg.ways, cfg.entries / cfg.subEntries))
    {
    }

    /** See SetAssocArray::attachReusePredictor (block granularity). */
    void attachReusePredictor(ReusePredictor *pred)
    {
        _blocks.attachReusePredictor(pred);
    }

    /** Translations held (not blocks). */
    std::uint32_t
    occupancy() const
    {
        std::uint32_t total = 0;
        _blocks.forEach([&](std::uint64_t, const Block &b) {
            total += static_cast<std::uint32_t>(std::popcount(b.validMask));
        });
        return total;
    }

    /** Page capacity (blocks x sub-entries). */
    std::uint32_t capacity() const { return _blocks.capacity() * _sub; }

    /** Fills that re-anchored a block over live sub-entries. */
    const Counter &subConflicts() const { return _conflicts; }

    const Counter &deadInsertions() const
    {
        return _blocks.deadInsertions();
    }

    const Counter &deadEvictions() const
    {
        return _blocks.deadEvictions();
    }

    /** Structural probe; touches block LRU only on a slot hit. */
    std::optional<std::pair<Pfn, bool>>
    probe(Vpn vpn, bool touch)
    {
        Block *b = _blocks.lookup(vpn >> _shift, false);
        if (!b)
            return std::nullopt;
        const std::uint32_t slot =
            static_cast<std::uint32_t>(vpn & _slotMask);
        if (!(b->validMask >> slot & 1))
            return std::nullopt;
        if (touch)
            _blocks.lookup(vpn >> _shift, true);
        return std::make_pair(static_cast<Pfn>(b->basePfn + slot),
                              (b->writableMask >> slot & 1) != 0);
    }

    /** Whether @p vpn's slot is valid; no recency update. */
    bool
    contains(Vpn vpn) const
    {
        const Block *b = _blocks.peek(vpn >> _shift);
        return b && (b->validMask >> (vpn & _slotMask) & 1);
    }

    /**
     * Install a translation.
     *
     * @param evictedOut    VPNs displaced by this fill are appended:
     *        a whole block on a capacity eviction, the re-anchored
     *        block's live slots on a sub-entry conflict.
     * @param evictedReused whether the displaced block was ever
     *        re-referenced (conflicts count as reused: the block was
     *        live when the conflicting fill arrived).
     */
    void
    fill(Vpn vpn, Pfn pfn, bool writable, std::vector<Vpn> &evictedOut,
         bool *evictedReused = nullptr)
    {
        const std::uint64_t tag = vpn >> _shift;
        const std::uint32_t slot =
            static_cast<std::uint32_t>(vpn & _slotMask);
        if (Block *b = _blocks.lookup(tag, true)) {
            if (pfn != b->basePfn + slot) {
                // Contiguity broken: re-anchor to the new translation
                // and surrender whatever the block was sharing.
                for (std::uint32_t s = 0; s < _sub; ++s) {
                    if (s != slot && (b->validMask >> s & 1))
                        evictedOut.push_back((tag << _shift) | s);
                }
                if (evictedReused && b->validMask & ~(1ull << slot))
                    *evictedReused = true;
                _conflicts.inc();
                b->basePfn = pfn - slot;
                b->validMask = 0;
                b->writableMask = 0;
            }
            b->validMask |= 1ull << slot;
            if (writable)
                b->writableMask |= 1ull << slot;
            else
                b->writableMask &= ~(1ull << slot);
            return;
        }
        Block fresh;
        fresh.basePfn = pfn - slot;
        fresh.validMask = 1ull << slot;
        fresh.writableMask = writable ? 1ull << slot : 0;
        if (auto displaced = _blocks.insert(tag, fresh, evictedReused)) {
            const Block &old = displaced->second;
            for (std::uint32_t s = 0; s < _sub; ++s) {
                if (old.validMask >> s & 1)
                    evictedOut.push_back(
                        (displaced->first << _shift) | s);
            }
        }
    }

    /** Invalidate one translation. @return true if it was present. */
    bool
    shootdown(Vpn vpn)
    {
        const std::uint64_t tag = vpn >> _shift;
        Block *b = _blocks.lookup(tag, false);
        if (!b)
            return false;
        const std::uint32_t slot =
            static_cast<std::uint32_t>(vpn & _slotMask);
        if (!(b->validMask >> slot & 1))
            return false;
        b->validMask &= ~(1ull << slot);
        b->writableMask &= ~(1ull << slot);
        if (b->validMask == 0)
            _blocks.erase(tag);
        return true;
    }

    void flushAll() { _blocks.flushAll(); }

    /** Visit every resident translation as fn(vpn, pfn, writable). */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        const std::uint32_t sub = _sub;
        const std::uint32_t shift = _shift;
        _blocks.forEach([&](std::uint64_t tag, const Block &b) {
            for (std::uint32_t s = 0; s < sub; ++s) {
                if (b.validMask >> s & 1) {
                    fn(static_cast<Vpn>((tag << shift) | s),
                       static_cast<Pfn>(b.basePfn + s),
                       (b.writableMask >> s & 1) != 0);
                }
            }
        });
    }

  private:
    struct Block
    {
        Pfn basePfn = 0; ///< PFN of slot 0 (anchored at first fill)
        std::uint64_t validMask = 0;
        std::uint64_t writableMask = 0;
    };

    std::uint32_t _sub;
    std::uint64_t _slotMask;
    std::uint32_t _shift;
    SetAssocArray<std::uint64_t, Block> _blocks;
    Counter _conflicts;
};

} // namespace idyll

#endif // IDYLL_TLB_SUBENTRY_HH
