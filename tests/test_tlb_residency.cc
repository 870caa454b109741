/**
 * @file
 * Unit and differential tests for the L1 TLB residency index and the
 * index-driven TlbHierarchy: the index must track L1 contents exactly,
 * and the hierarchy must behave like the plain probe-every-L1 design.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "sim/rng.hh"
#include "tlb/residency.hh"
#include "tlb/tlb.hh"

namespace idyll
{
namespace
{

/** Number of the first @p cus CUs whose L1 @p idx says holds @p vpn. */
std::uint32_t
holders(const L1ResidencyIndex &idx, Vpn vpn, std::uint32_t cus)
{
    std::uint32_t n = 0;
    for (std::uint32_t cu = 0; cu < cus; ++cu)
        n += idx.holds(vpn, cu) ? 1 : 0;
    return n;
}

TEST(L1ResidencyIndex, TracksHoldersPerVpn)
{
    L1ResidencyIndex idx(64);
    idx.add(7, 3);
    idx.add(7, 63);
    idx.add(9, 0);
    EXPECT_TRUE(idx.holds(7, 3));
    EXPECT_TRUE(idx.holds(7, 63));
    EXPECT_FALSE(idx.holds(7, 0));
    EXPECT_EQ(holders(idx, 7, 64), 2u);
    EXPECT_EQ(idx.size(), 2u);

    idx.remove(7, 3);
    EXPECT_FALSE(idx.holds(7, 3));
    EXPECT_EQ(holders(idx, 7, 64), 1u);
    idx.remove(7, 63);
    EXPECT_EQ(holders(idx, 7, 64), 0u);
    EXPECT_EQ(idx.size(), 1u);
    idx.remove(7, 63); // already gone: a no-op
    EXPECT_EQ(idx.size(), 1u);
}

TEST(L1ResidencyIndex, TakeVisitsHoldersInCuOrderAcrossMaskWords)
{
    // 130 CUs need three mask words per VPN.
    L1ResidencyIndex idx(130);
    for (std::uint32_t cu : {129u, 64u, 5u, 63u, 0u})
        idx.add(42, cu);
    std::vector<std::uint32_t> seen;
    EXPECT_EQ(idx.take(42, [&](std::uint32_t cu) { seen.push_back(cu); }),
              5u);
    EXPECT_EQ(seen, (std::vector<std::uint32_t>{0, 5, 63, 64, 129}));
    EXPECT_EQ(idx.size(), 0u);
    EXPECT_EQ(idx.take(42, [](std::uint32_t) { FAIL(); }), 0u);
}

TEST(L1ResidencyIndex, ClearForgetsEverything)
{
    L1ResidencyIndex idx(4);
    for (Vpn v = 0; v < 500; ++v)
        idx.add(v, static_cast<std::uint32_t>(v % 4));
    EXPECT_EQ(idx.size(), 500u);
    idx.clear();
    EXPECT_EQ(idx.size(), 0u);
    for (Vpn v = 0; v < 500; ++v)
        EXPECT_FALSE(idx.holds(v, static_cast<std::uint32_t>(v % 4)));
}

TEST(L1ResidencyIndex, MatchesReferenceUnderGrowthAndDeletion)
{
    // Random churn over a small VPN range forces long probe runs,
    // repeated doubling and many backward-shift deletions; every
    // membership answer must match a plain map.
    L1ResidencyIndex idx(70);
    std::map<Vpn, std::set<std::uint32_t>> ref;
    Rng rng(7);
    for (int step = 0; step < 40000; ++step) {
        const Vpn vpn = rng.below(3000);
        const auto cu = static_cast<std::uint32_t>(rng.below(70));
        switch (rng.below(4)) {
          case 0:
          case 1:
            idx.add(vpn, cu);
            ref[vpn].insert(cu);
            break;
          case 2:
            idx.remove(vpn, cu);
            if (auto it = ref.find(vpn); it != ref.end()) {
                it->second.erase(cu);
                if (it->second.empty())
                    ref.erase(it);
            }
            break;
          default: {
            std::vector<std::uint32_t> seen;
            idx.take(vpn, [&](std::uint32_t c) { seen.push_back(c); });
            std::vector<std::uint32_t> want;
            if (auto it = ref.find(vpn); it != ref.end()) {
                want.assign(it->second.begin(), it->second.end());
                ref.erase(it);
            }
            ASSERT_EQ(seen, want) << "step " << step;
          }
        }
        ASSERT_EQ(idx.size(), ref.size()) << "step " << step;
    }
    for (Vpn vpn = 0; vpn < 3000; ++vpn) {
        const auto it = ref.find(vpn);
        const std::uint32_t want =
            it == ref.end() ? 0u
                            : static_cast<std::uint32_t>(it->second.size());
        ASSERT_EQ(holders(idx, vpn, 70), want) << "vpn " << vpn;
    }
}

/**
 * The hierarchy as it was before the residency index: an L1 probe
 * scans the CU's tags and a shootdown asks every L1.
 */
class ScanHierarchy
{
  public:
    explicit ScanHierarchy(const SystemConfig &cfg) : _l2(cfg.l2Tlb)
    {
        for (std::uint32_t cu = 0; cu < cfg.cusPerGpu; ++cu)
            _l1s.emplace_back(cfg.l1Tlb);
    }

    TlbProbeResult
    probe(std::uint32_t cu, Vpn vpn)
    {
        if (auto e = _l1s[cu].probe(vpn))
            return {true, *e, _l1s[cu].latency()};
        const Cycles lat = _l1s[cu].latency() + _l2.latency();
        if (auto e = _l2.probe(vpn)) {
            _l1s[cu].fill(vpn, *e);
            return {true, *e, lat};
        }
        return {false, {}, lat};
    }

    void
    fill(std::uint32_t cu, Vpn vpn, TlbEntry e)
    {
        _l2.fill(vpn, e);
        _l1s[cu].fill(vpn, e);
    }

    std::uint32_t
    shootdown(Vpn vpn)
    {
        std::uint32_t removed = _l2.shootdown(vpn) ? 1 : 0;
        for (Tlb &l1 : _l1s)
            removed += l1.shootdown(vpn) ? 1 : 0;
        return removed;
    }

    std::vector<Tlb> _l1s;
    Tlb _l2;
};

/** L1 contents as sorted (vpn, pfn) pairs. */
std::vector<std::pair<Vpn, Pfn>>
contents(const Tlb &tlb)
{
    std::vector<std::pair<Vpn, Pfn>> out;
    tlb.forEachEntry(
        [&](Vpn vpn, const TlbEntry &e) { out.emplace_back(vpn, e.pfn); });
    std::sort(out.begin(), out.end());
    return out;
}

void
runDifferential(const SystemConfig &cfg, std::uint64_t seed)
{
    TlbHierarchy h(cfg);
    ScanHierarchy ref(cfg);
    Rng rng(seed);
    const std::uint32_t cus = cfg.cusPerGpu;
    for (int step = 0; step < 20000; ++step) {
        const Vpn vpn = rng.below(96);
        const auto cu = static_cast<std::uint32_t>(rng.below(cus));
        const std::uint64_t op = rng.below(16);
        if (op < 8) {
            const TlbProbeResult a = h.probe(cu, vpn);
            const TlbProbeResult b = ref.probe(cu, vpn);
            ASSERT_EQ(a.hit, b.hit) << "step " << step;
            ASSERT_EQ(a.latency, b.latency) << "step " << step;
            ASSERT_EQ(a.entry.pfn, b.entry.pfn) << "step " << step;
        } else if (op < 12) {
            const TlbEntry e{static_cast<Pfn>(rng.below(1000)), true};
            h.fill(cu, vpn, e);
            ref.fill(cu, vpn, e);
        } else if (op < 13) {
            // Gpu::installMapping fills the shared L2 alone.
            const TlbEntry e{static_cast<Pfn>(rng.below(1000)), true};
            h.l2().fill(vpn, e);
            ref._l2.fill(vpn, e);
        } else {
            ASSERT_EQ(h.shootdown(vpn), ref.shootdown(vpn))
                << "step " << step;
        }
        if (step % 997 == 0) {
            h.flushAll();
            for (Tlb &l1 : ref._l1s)
                l1.flushAll();
            ref._l2.flushAll();
        }
    }

    std::uint64_t refHits = 0;
    std::uint64_t refMisses = 0;
    std::set<Vpn> resident;
    for (std::uint32_t cu = 0; cu < cus; ++cu) {
        ASSERT_EQ(contents(h.l1(cu)), contents(ref._l1s[cu])) << "cu " << cu;
        refHits += ref._l1s[cu].hits().value();
        refMisses += ref._l1s[cu].misses().value();
        h.l1(cu).forEachEntry([&](Vpn vpn, const TlbEntry &) {
            EXPECT_TRUE(h.l1Residency().holds(vpn, cu));
            resident.insert(vpn);
        });
    }
    EXPECT_EQ(contents(h.l2()), contents(ref._l2));
    EXPECT_EQ(h.l1Residency().size(), resident.size());
    // A miss the index answers still counts as an L1 miss.
    EXPECT_EQ(h.l1Hits(), refHits);
    EXPECT_EQ(h.l1Misses(), refMisses);
    EXPECT_EQ(h.l2().hits().value(), ref._l2.hits().value());
}

TEST(TlbHierarchy, MatchesScanOfEveryL1)
{
    SystemConfig cfg;
    cfg.cusPerGpu = 8;
    cfg.l1Tlb = TlbConfig{4, 4, 1};
    cfg.l2Tlb = TlbConfig{32, 4, 10};
    runDifferential(cfg, 1);
}

TEST(TlbHierarchy, MatchesScanWithSetAssocL1sAndWideMasks)
{
    // 70 CUs span two mask words; 2-way L1 sets evict by set.
    SystemConfig cfg;
    cfg.cusPerGpu = 70;
    cfg.l1Tlb = TlbConfig{8, 2, 1};
    cfg.l2Tlb = TlbConfig{64, 8, 10};
    runDifferential(cfg, 2);
}

TEST(TlbHierarchy, MatchesScanWithSubEntryL2)
{
    SystemConfig cfg;
    cfg.cusPerGpu = 6;
    cfg.l1Tlb = TlbConfig{4, 4, 1};
    cfg.l2Tlb = TlbConfig{32, 4, 10};
    cfg.l2Tlb.subEntries = 4;
    cfg.l2Tlb.deadEntryEviction = true;
    runDifferential(cfg, 3);
}

TEST(TlbHierarchy, ShootdownVisitsOnlyHolders)
{
    SystemConfig cfg;
    cfg.cusPerGpu = 64;
    TlbHierarchy h(cfg);
    h.fill(17, 5, TlbEntry{1, true});
    h.fill(40, 5, TlbEntry{1, true});
    EXPECT_EQ(holders(h.l1Residency(), 5, 64), 2u);
    EXPECT_EQ(h.shootdown(5), 3u); // L2 + two L1 copies
    EXPECT_EQ(holders(h.l1Residency(), 5, 64), 0u);
    EXPECT_EQ(h.l1Residency().size(), 0u);
}

TEST(TlbHierarchy, FlushAllEmptiesTheIndex)
{
    SystemConfig cfg;
    cfg.cusPerGpu = 4;
    TlbHierarchy h(cfg);
    for (Vpn v = 0; v < 10; ++v)
        h.fill(static_cast<std::uint32_t>(v % 4), v, TlbEntry{v, true});
    EXPECT_EQ(h.l1Residency().size(), 10u);
    h.flushAll();
    EXPECT_EQ(h.l1Residency().size(), 0u);
    EXPECT_FALSE(h.probe(0, 0).hit);
}

} // namespace
} // namespace idyll
