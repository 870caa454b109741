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
 * The table is a FlatVpnMap of 64-CU holder masks. A GPU with more
 * than 64 CUs stores one mask word per 64 CUs, each under its own key
 * (the word number above the VPN's bits), so every slot stays one key
 * and one word. A key whose mask drops to zero is erased. Table layout
 * never affects results: only membership is observable.
 */

#ifndef IDYLL_TLB_RESIDENCY_HH
#define IDYLL_TLB_RESIDENCY_HH

#include <bit>
#include <cstdint>

#include "sim/flat_vpn_map.hh"
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
        : _words((numCus + 63) / 64)
    {
        IDYLL_ASSERT(numCus > 0, "no CUs");
        IDYLL_ASSERT(_words < (1u << (64 - kWordShift)) - 1,
                     "too many CUs for the residency key: ", numCus);
    }

    /** Record that @p cu's L1 now holds @p vpn. */
    void
    add(Vpn vpn, std::uint32_t cu)
    {
        const auto [mask, inserted] = _masks.insert(key(vpn, cu / 64), 0);
        *mask |= bit(cu);
        if (inserted && !heldInOtherWords(vpn, cu / 64))
            ++_size;
    }

    /** Record that @p cu's L1 no longer holds @p vpn. */
    void
    remove(Vpn vpn, std::uint32_t cu)
    {
        const std::uint64_t k = key(vpn, cu / 64);
        std::uint64_t *mask = _masks.find(k);
        if (!mask)
            return;
        *mask &= ~bit(cu);
        if (*mask == 0) {
            _masks.erase(k);
            if (!heldInOtherWords(vpn, cu / 64))
                --_size;
        }
    }

    /** Whether @p cu's L1 holds @p vpn. */
    bool
    holds(Vpn vpn, std::uint32_t cu) const
    {
        const std::uint64_t *mask = _masks.find(key(vpn, cu / 64));
        return mask && (*mask & bit(cu)) != 0;
    }

    /**
     * Forget @p vpn, calling fn(cu) for every L1 that held it, in
     * ascending CU order. @return the number of holders.
     */
    template <typename Fn>
    std::uint32_t
    take(Vpn vpn, Fn fn)
    {
        std::uint32_t n = 0;
        for (std::uint32_t w = 0; w < _words; ++w) {
            const std::uint64_t k = key(vpn, w);
            const std::uint64_t *mask = _masks.find(k);
            if (!mask)
                continue;
            const std::uint64_t held = *mask;
            _masks.erase(k);
            for (std::uint64_t m = held; m; m &= m - 1, ++n)
                fn(w * 64 + static_cast<std::uint32_t>(std::countr_zero(m)));
        }
        if (n)
            --_size;
        return n;
    }

    /** Size the table for @p vpns distinct VPNs up front. */
    void reserve(std::uint32_t vpns) { _masks.reserve(vpns * _words); }

    /** Forget everything (every L1 was flushed). */
    void
    clear()
    {
        _masks.clear();
        _size = 0;
    }

    /** Distinct VPNs held by at least one L1. */
    std::uint32_t size() const { return _size; }

  private:
    /** Key bits below the mask-word number (VPNs are narrower). */
    static constexpr std::uint32_t kWordShift = 52;

    static std::uint64_t bit(std::uint32_t cu) { return 1ull << (cu % 64); }

    static std::uint64_t
    key(Vpn vpn, std::uint32_t word)
    {
        return (static_cast<std::uint64_t>(word) << kWordShift) | vpn;
    }

    /** Whether a mask word other than @p word holds @p vpn. */
    bool
    heldInOtherWords(Vpn vpn, std::uint32_t word) const
    {
        for (std::uint32_t w = 0; w < _words; ++w)
            if (w != word && _masks.contains(key(vpn, w)))
                return true;
        return false;
    }

    std::uint32_t _words; ///< mask words per VPN (64 CUs each)
    std::uint32_t _size = 0;
    FlatVpnMap<std::uint64_t> _masks;
};

} // namespace idyll

#endif // IDYLL_TLB_RESIDENCY_HH
