/**
 * @file
 * Unit tests for the TLB hierarchy.
 */

#include <gtest/gtest.h>

#include "sim/event_queue.hh"
#include "sim/trace.hh"
#include "tlb/tlb.hh"

namespace idyll
{
namespace
{

SystemConfig
smallConfig()
{
    SystemConfig cfg;
    cfg.cusPerGpu = 4;
    return cfg;
}

TEST(Tlb, SingleLevelHitMissAndStats)
{
    Tlb tlb(TlbConfig{32, 32, 1});
    EXPECT_FALSE(tlb.probe(5).has_value());
    tlb.fill(5, TlbEntry{77, true});
    auto hit = tlb.probe(5);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->pfn, 77u);
    EXPECT_EQ(tlb.hits().value(), 1u);
    EXPECT_EQ(tlb.misses().value(), 1u);
}

TEST(Tlb, ShootdownRemovesEntry)
{
    Tlb tlb(TlbConfig{32, 32, 1});
    tlb.fill(9, TlbEntry{1, true});
    EXPECT_TRUE(tlb.shootdown(9));
    EXPECT_FALSE(tlb.shootdown(9));
    EXPECT_FALSE(tlb.probe(9).has_value());
}

TEST(Tlb, LruEvictionAtCapacity)
{
    Tlb tlb(TlbConfig{4, 4, 1}); // fully associative, 4 entries
    for (Vpn v = 0; v < 4; ++v)
        tlb.fill(v, TlbEntry{v, true});
    tlb.probe(0); // refresh 0; 1 becomes LRU
    tlb.fill(100, TlbEntry{100, true});
    EXPECT_TRUE(tlb.probe(0).has_value());
    EXPECT_FALSE(tlb.probe(1).has_value());
}

TEST(TlbHierarchy, L1HitLatencyIsOneCycle)
{
    TlbHierarchy h(smallConfig());
    h.fill(0, 42, TlbEntry{7, true});
    auto r = h.probe(0, 42);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, 1u);
}

TEST(TlbHierarchy, L2HitRefillsRequestingL1Only)
{
    TlbHierarchy h(smallConfig());
    h.l2().fill(42, TlbEntry{7, true});

    auto r = h.probe(1, 42); // L1 miss, L2 hit
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.latency, 1u + 10u);

    // CU 1's L1 now has it; CU 2's does not.
    EXPECT_TRUE(h.l1(1).contains(42));
    EXPECT_FALSE(h.l1(2).contains(42));
}

TEST(TlbHierarchy, FullMissLatencyIncludesBothLevels)
{
    TlbHierarchy h(smallConfig());
    auto r = h.probe(0, 999);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.latency, 11u);
}

TEST(TlbHierarchy, ShootdownSweepsEveryLevel)
{
    TlbHierarchy h(smallConfig());
    h.fill(0, 5, TlbEntry{1, true});
    h.fill(1, 5, TlbEntry{1, true});
    h.fill(2, 5, TlbEntry{1, true});
    // L2 + three L1 copies.
    EXPECT_EQ(h.shootdown(5), 4u);
    EXPECT_FALSE(h.probe(3, 5).hit);
    EXPECT_EQ(h.shootdown(5), 0u);
}

#if IDYLL_TRACE_ENABLED

TEST(TlbHierarchy, L2EvictionTraceIsCuAgnostic)
{
    // Regression: L2 victims used to be tagged with whichever CU's
    // fill triggered the eviction, misattributing shared-L2 activity
    // to one CU in Perfetto. L2 evictions must carry kNoCu; L1
    // evictions keep the owning CU.
    SystemConfig cfg = smallConfig();
    cfg.l2Tlb = TlbConfig{4, 4, 10};
    cfg.l1Tlb = TlbConfig{4, 4, 1};
    TlbHierarchy h(cfg);

    EventQueue eq;
    Tracer tracer(eq, kTraceAll);
    CollectTraceSink sink;
    tracer.addSink(&sink);
    h.setTracer(&tracer, 0);

    for (Vpn v = 0; v < 8; ++v)
        h.fill(2, v, TlbEntry{static_cast<Pfn>(v), true});

    bool saw_l2_evict = false;
    bool saw_l1_evict = false;
    for (const TraceEvent &e : sink.events()) {
        if (e.op != TraceOp::TlbEvict)
            continue;
        if (e.b == 2) {
            saw_l2_evict = true;
            EXPECT_EQ(e.a, kNoCu);
        } else {
            saw_l1_evict = true;
            EXPECT_EQ(e.b, 1u);
            EXPECT_EQ(e.a, 2u);
        }
    }
    EXPECT_TRUE(saw_l2_evict);
    EXPECT_TRUE(saw_l1_evict);
}

#endif // IDYLL_TRACE_ENABLED

TEST(TlbHierarchy, AggregateL1Stats)
{
    TlbHierarchy h(smallConfig());
    h.fill(0, 1, TlbEntry{1, true});
    h.probe(0, 1); // L1 hit
    h.probe(1, 2); // L1+L2 miss
    EXPECT_EQ(h.l1Hits(), 1u);
    EXPECT_EQ(h.l1Misses(), 1u);
}

TlbConfig
subEntryConfig()
{
    TlbConfig cfg{64, 4, 10};
    cfg.subEntries = 4;
    return cfg;
}

TEST(SubEntryTlb, ContiguousNeighborsShareOneTag)
{
    Tlb tlb(subEntryConfig());
    // One fill anchors the block; contiguous neighbors coalesce.
    tlb.fill(0x100, TlbEntry{0x500, true});
    tlb.fill(0x101, TlbEntry{0x501, false});
    auto a = tlb.probe(0x100);
    auto b = tlb.probe(0x101);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->pfn, 0x500u);
    EXPECT_TRUE(a->writable);
    EXPECT_EQ(b->pfn, 0x501u);
    EXPECT_FALSE(b->writable);
    // Slots that were never filled must not hit, even though their
    // block tag is resident.
    EXPECT_FALSE(tlb.probe(0x102).has_value());
    EXPECT_EQ(tlb.occupancy(), 2u);
}

TEST(SubEntryTlb, NonContiguousFillReanchorsTheBlock)
{
    Tlb tlb(subEntryConfig());
    tlb.fill(0x100, TlbEntry{0x500, true});
    tlb.fill(0x101, TlbEntry{0x501, true});
    // 0x102's PFN breaks contiguity (expected 0x502): the block
    // re-anchors and the shared translations are dropped.
    std::vector<Vpn> evicted;
    tlb.fill(0x102, TlbEntry{0x900, true}, evicted);
    EXPECT_EQ(evicted.size(), 2u);
    EXPECT_FALSE(tlb.probe(0x100).has_value());
    EXPECT_FALSE(tlb.probe(0x101).has_value());
    auto hit = tlb.probe(0x102);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->pfn, 0x900u);
    EXPECT_EQ(tlb.subConflicts(), 1u);
}

TEST(SubEntryTlb, ShootdownClearsOneSlotOnly)
{
    Tlb tlb(subEntryConfig());
    tlb.fill(0x200, TlbEntry{0x800, true});
    tlb.fill(0x201, TlbEntry{0x801, true});
    EXPECT_TRUE(tlb.shootdown(0x200));
    EXPECT_FALSE(tlb.shootdown(0x200));
    EXPECT_FALSE(tlb.probe(0x200).has_value());
    EXPECT_TRUE(tlb.probe(0x201).has_value());
}

TEST(SubEntryTlb, BlockEvictionReportsEveryVictim)
{
    // 1 block of 4 sub-entries: the second block's fill evicts the
    // first block wholesale.
    TlbConfig cfg{4, 1, 10};
    cfg.subEntries = 4;
    Tlb tlb(cfg);
    tlb.fill(0x100, TlbEntry{0x500, true});
    tlb.fill(0x101, TlbEntry{0x501, true});
    std::vector<Vpn> evicted;
    tlb.fill(0x200, TlbEntry{0x700, true}, evicted);
    ASSERT_EQ(evicted.size(), 2u);
    EXPECT_EQ(evicted[0], 0x100u);
    EXPECT_EQ(evicted[1], 0x101u);
    EXPECT_TRUE(tlb.probe(0x200).has_value());
}

TEST(SubEntryTlb, ForEachEnumeratesTranslations)
{
    Tlb tlb(subEntryConfig());
    tlb.fill(0x100, TlbEntry{0x500, true});
    tlb.fill(0x101, TlbEntry{0x501, false});
    std::vector<std::pair<Vpn, Pfn>> seen;
    tlb.forEachEntry([&](Vpn vpn, const TlbEntry &e) {
        seen.emplace_back(vpn, e.pfn);
    });
    ASSERT_EQ(seen.size(), 2u);
    // The unplug audit depends on exact (vpn, pfn) pairs.
    for (const auto &[vpn, pfn] : seen)
        EXPECT_EQ(pfn, 0x500u + (vpn - 0x100));
}

TEST(SubEntryTlb, HierarchyRefillKeepsLevelsCoherent)
{
    SystemConfig cfg = smallConfig();
    cfg.l2Tlb.subEntries = 4;
    TlbHierarchy h(cfg);
    h.fill(0, 0x300, TlbEntry{0x600, true});
    auto r = h.probe(1, 0x300); // L1 miss, sub-entry L2 hit
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.entry.pfn, 0x600u);
    EXPECT_TRUE(h.l1(1).contains(0x300));
    EXPECT_EQ(h.shootdown(0x300), 3u); // L2 + CU0's and CU1's L1
}

TEST(DeadEvictTlb, PredictorDemotesNeverReusedFills)
{
    TlbConfig cfg{8, 4, 10};
    cfg.deadEntryEviction = true;
    Tlb tlb(cfg);
    ASSERT_NE(tlb.predictor(), nullptr);
    // A scan: every fill is evicted without ever being re-probed.
    for (Vpn v = 0; v < 4096; ++v)
        tlb.fill(v, TlbEntry{static_cast<Pfn>(v), true});
    EXPECT_GT(tlb.deadEvictions(), 0u);
    EXPECT_GT(tlb.deadInsertions(), 0u);
}

TEST(DeadEvictTlb, DisabledByDefault)
{
    Tlb tlb(TlbConfig{8, 4, 10});
    EXPECT_EQ(tlb.predictor(), nullptr);
    for (Vpn v = 0; v < 64; ++v)
        tlb.fill(v, TlbEntry{static_cast<Pfn>(v), true});
    EXPECT_EQ(tlb.deadInsertions(), 0u);
}

} // namespace
} // namespace idyll
