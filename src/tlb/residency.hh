/**
 * @file
 * Per-GPU L1 TLB residency index: VPN -> the CUs whose L1 TLB holds a
 * translation for it.
 *
 * Without it, a shootdown has to ask every CU's fully associative L1
 * (64 L1s x 32 tags per VPN), although the page is usually resident in
 * none or one of them. The index answers "which L1s hold this VPN" with
 * one hash probe, so a shootdown visits only the holders: invalidation
 * through a reverse index, never by scanning. The same probe lets an
 * L1 miss skip the tag scan. TlbHierarchy keeps the index exact on
 * every L1 fill, eviction, shootdown and flush.
 *
 * The table is open-addressed with linear probing and backward-shift
 * deletion (no tombstones). It doubles before it passes half full, so
 * it stays as small as the set of L1-resident pages (which the L1s'
 * total capacity bounds) and a lookup touches one cache line. Each
 * slot is one contiguous run of words: the VPN, then the holder
 * bitmask (one bit per CU, 64 CUs per word). A slot whose mask is all
 * zero is empty. Table layout never affects results: only membership
 * is observable.
 */

#ifndef IDYLL_TLB_RESIDENCY_HH
#define IDYLL_TLB_RESIDENCY_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace idyll
{

/** VPN -> bitmask of the CUs whose L1 holds it, for one GPU. */
class L1ResidencyIndex
{
  public:
    /** @param numCus CUs (one L1 each) the masks cover. */
    explicit L1ResidencyIndex(std::uint32_t numCus)
        : _words((numCus + 63) / 64), _stride(1 + _words)
    {
        IDYLL_ASSERT(numCus > 0, "no CUs");
        resize(kMinSlots);
    }

    /** Record that @p cu's L1 now holds @p vpn. */
    void
    add(Vpn vpn, std::uint32_t cu)
    {
        std::uint64_t *slot = at(find(vpn));
        if (empty(slot)) {
            if (2 * (_size + 1) > _slotMask + 1) {
                resize(2 * (_slotMask + 1));
                slot = at(find(vpn));
            }
            slot[0] = vpn;
            ++_size;
        }
        slot[1 + cu / 64] |= bit(cu);
    }

    /** Record that @p cu's L1 no longer holds @p vpn. */
    void
    remove(Vpn vpn, std::uint32_t cu)
    {
        const std::uint64_t i = find(vpn);
        std::uint64_t *slot = at(i);
        if (empty(slot))
            return;
        slot[1 + cu / 64] &= ~bit(cu);
        if (empty(slot))
            erase(i);
    }

    /** Whether @p cu's L1 holds @p vpn. */
    bool
    holds(Vpn vpn, std::uint32_t cu) const
    {
        return (at(find(vpn))[1 + cu / 64] & bit(cu)) != 0;
    }

    /**
     * Forget @p vpn, calling fn(cu) for every L1 that held it, in
     * ascending CU order. @return the number of holders.
     */
    template <typename Fn>
    std::uint32_t
    take(Vpn vpn, Fn fn)
    {
        const std::uint64_t i = find(vpn);
        std::uint64_t *slot = at(i);
        if (empty(slot))
            return 0;
        std::uint32_t n = 0;
        for (std::uint32_t w = 0; w < _words; ++w) {
            for (std::uint64_t m = slot[1 + w]; m; m &= m - 1, ++n)
                fn(w * 64 + static_cast<std::uint32_t>(std::countr_zero(m)));
            slot[1 + w] = 0;
        }
        erase(i);
        return n;
    }

    /** Forget everything (every L1 was flushed). */
    void
    clear()
    {
        _cells.clear(); // so resize() has nothing to rehash
        _size = 0;
        resize(kMinSlots);
    }

    /** Distinct VPNs held by at least one L1. */
    std::uint32_t size() const { return _size; }

  private:
    /** Initial table size; it doubles whenever it would pass half full. */
    static constexpr std::uint64_t kMinSlots = 64;

    static std::uint64_t bit(std::uint32_t cu) { return 1ull << (cu % 64); }

    bool
    empty(const std::uint64_t *slot) const
    {
        for (std::uint32_t w = 1; w <= _words; ++w)
            if (slot[w])
                return false;
        return true;
    }

    std::uint64_t
    home(Vpn vpn) const
    {
        // Fibonacci hashing: the top bits of a golden-ratio multiply.
        return (static_cast<std::uint64_t>(vpn) * 0x9E3779B97F4A7C15ull) >>
               _shift;
    }

    std::uint64_t *at(std::uint64_t i) { return &_cells[i * _stride]; }

    const std::uint64_t *
    at(std::uint64_t i) const
    {
        return &_cells[i * _stride];
    }

    /** Slot index holding @p vpn, or of the empty slot ending its run. */
    std::uint64_t
    find(Vpn vpn) const
    {
        for (std::uint64_t i = home(vpn);; i = (i + 1) & _slotMask) {
            const std::uint64_t *slot = at(i);
            if (empty(slot) || slot[0] == vpn)
                return i;
        }
    }

    /** Rehash every member into a fresh table of @p slots slots. */
    void
    resize(std::uint64_t slots)
    {
        std::vector<std::uint64_t> old(slots * _stride, 0);
        old.swap(_cells);
        _shift = 64 - static_cast<std::uint32_t>(std::countr_zero(slots));
        _slotMask = slots - 1;
        for (std::size_t i = 0; i < old.size(); i += _stride) {
            if (!empty(&old[i])) {
                std::copy(&old[i], &old[i] + _stride,
                          at(find(static_cast<Vpn>(old[i]))));
            }
        }
    }

    /**
     * Empty slot @p hole (its mask is already zero) and shift later
     * members of its probe run back, so every key stays reachable from
     * its home without tombstones.
     */
    void
    erase(std::uint64_t hole)
    {
        --_size;
        for (std::uint64_t i = (hole + 1) & _slotMask;;
             i = (i + 1) & _slotMask) {
            std::uint64_t *next = at(i);
            if (empty(next))
                return;
            // Move next into the hole unless its home lies cyclically
            // in (hole, i]: then the hole is not on its probe path.
            const std::uint64_t h = home(static_cast<Vpn>(next[0]));
            if (((i - h) & _slotMask) < ((i - hole) & _slotMask))
                continue;
            std::copy(next, next + _stride, at(hole));
            std::fill(next + 1, next + _stride, 0);
            hole = i;
        }
    }

    std::uint32_t _words;  ///< mask words per slot
    std::uint32_t _stride; ///< words per slot (VPN + mask)
    std::uint32_t _shift = 0; ///< 64 - log2(slots), for home()
    std::uint64_t _slotMask = 0;
    std::uint32_t _size = 0;
    std::vector<std::uint64_t> _cells;
};

} // namespace idyll

#endif // IDYLL_TLB_RESIDENCY_HH
