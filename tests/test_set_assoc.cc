/**
 * @file
 * Unit tests for the set-associative array (the building block of
 * every TLB, the per-level MMU caches, and the VM-Cache), including
 * the dead-entry-aware replacement mode.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cache/set_assoc.hh"

namespace idyll
{
namespace
{

using Array = SetAssocArray<std::uint64_t, int>;

TEST(SetAssoc, InsertThenLookup)
{
    Array a(64, 4);
    EXPECT_EQ(a.lookup(7), nullptr);
    a.insert(7, 70);
    ASSERT_NE(a.lookup(7), nullptr);
    EXPECT_EQ(*a.lookup(7), 70);
    EXPECT_EQ(a.occupancy(), 1u);
}

TEST(SetAssoc, OverwriteSameKeyKeepsOneEntry)
{
    Array a(16, 4);
    a.insert(5, 1);
    a.insert(5, 2);
    EXPECT_EQ(a.occupancy(), 1u);
    EXPECT_EQ(*a.lookup(5), 2);
}

TEST(SetAssoc, FullyAssociativeLruEviction)
{
    Array a(4, 4); // one set
    for (int i = 0; i < 4; ++i)
        a.insert(i, i);
    // Touch 0..2, leaving 3 as LRU.
    a.lookup(0);
    a.lookup(1);
    a.lookup(2);
    auto displaced = a.insert(99, 99);
    ASSERT_TRUE(displaced.has_value());
    EXPECT_EQ(displaced->first, 3u);
    EXPECT_EQ(a.lookup(3), nullptr);
    EXPECT_NE(a.lookup(99), nullptr);
}

TEST(SetAssoc, EraseAndFlush)
{
    Array a(32, 8);
    for (int i = 0; i < 10; ++i)
        a.insert(i, i);
    EXPECT_TRUE(a.erase(3));
    EXPECT_FALSE(a.erase(3));
    EXPECT_EQ(a.occupancy(), 9u);
    a.flushAll();
    EXPECT_EQ(a.occupancy(), 0u);
    EXPECT_EQ(a.lookup(1), nullptr);
}

TEST(SetAssoc, FlushIfSelectively)
{
    Array a(32, 8);
    for (int i = 0; i < 10; ++i)
        a.insert(i, i);
    const auto removed =
        a.flushIf([](std::uint64_t key) { return key % 2 == 0; });
    EXPECT_EQ(removed, 5u);
    EXPECT_EQ(a.lookup(2), nullptr);
    EXPECT_NE(a.lookup(3), nullptr);
}

TEST(SetAssoc, PeekDoesNotTouchLru)
{
    Array a(2, 2);
    a.insert(1, 1);
    a.insert(2, 2);
    a.peek(1); // must NOT refresh key 1
    auto displaced = a.insert(3, 3);
    ASSERT_TRUE(displaced.has_value());
    EXPECT_EQ(displaced->first, 1u); // 1 was still LRU
}

TEST(SetAssoc, CapacityNeverExceeded)
{
    Array a(64, 4);
    for (int i = 0; i < 1000; ++i)
        a.insert(i, i);
    EXPECT_LE(a.occupancy(), a.capacity());
    EXPECT_EQ(a.occupancy(), 64u);
}

TEST(SetAssoc, ForEachVisitsAllValid)
{
    Array a(16, 4);
    for (int i = 0; i < 8; ++i)
        a.insert(i, i * 10);
    std::set<std::uint64_t> seen;
    a.forEach([&](std::uint64_t k, int v) {
        seen.insert(k);
        EXPECT_EQ(v, static_cast<int>(k) * 10);
    });
    EXPECT_EQ(seen.size(), 8u);
}

TEST(SetAssocDeath, RejectsBadGeometry)
{
    EXPECT_DEATH(Array(10, 4), "multiple");
    EXPECT_DEATH(Array(0, 0), "geometry");
}

TEST(SetAssocDeadEvict, EvictionTrainsThePredictor)
{
    Array a(4, 4);
    ReusePredictor pred;
    a.attachReusePredictor(&pred);
    a.insert(1, 1);
    a.lookup(1); // reused
    for (int i = 2; i <= 5; ++i)
        a.insert(i, i); // evicts 1 (reused) then grows
    EXPECT_GT(pred.trainedLive().value(), 0u);
    // Keys 2..5 cycle without hits: dead training accumulates.
    for (int i = 6; i <= 9; ++i)
        a.insert(i, i);
    EXPECT_GT(pred.trainedDead().value(), 0u);
    EXPECT_GT(a.deadEvictions().value(), 0u);
}

TEST(SetAssocDeadEvict, PredictedDeadEntriesEnterAtLru)
{
    Array a(4, 4);
    ReusePredictor pred;
    a.attachReusePredictor(&pred);
    // Train key 100 dead (threshold is 2 consecutive dead evictions).
    for (int round = 0; round < 3; ++round) {
        a.insert(100, 0);
        for (int i = 0; i < 4; ++i)
            a.insert(1000 + round * 10 + i, 0); // flush it, untouched
    }
    EXPECT_GT(pred.deadPredictions().value(), 0u);
    // Now: fill 3 live keys, touch them, insert the predicted-dead
    // key, then one more — the dead-hinted key must be the victim
    // even though it is the most recent insertion.
    a.flushAll();
    a.insert(1, 1);
    a.insert(2, 2);
    a.insert(3, 3);
    a.lookup(1);
    a.lookup(2);
    a.lookup(3);
    a.insert(100, 0);
    EXPECT_GT(a.deadInsertions().value(), 0u);
    auto displaced = a.insert(4, 4);
    ASSERT_TRUE(displaced.has_value());
    EXPECT_EQ(displaced->first, 100u);
}

TEST(SetAssocDeadEvict, TiedDeadInsertionsEvictInWayOrder)
{
    // Dead-hinted lines share recency 0; the lowest way goes first.
    Array a(4, 4);
    ReusePredictor pred;
    a.attachReusePredictor(&pred);
    for (std::uint64_t key : {100u, 101u}) {
        for (int round = 0; round < 3; ++round) {
            a.insert(key, 0);
            for (int i = 0; i < 4; ++i)
                a.insert(1000 + key * 100 + round * 10 + i, 0);
        }
    }
    a.flushAll();
    a.insert(1, 1); // way 0
    a.insert(2, 2); // way 1
    const std::uint64_t before = a.deadInsertions().value();
    a.insert(100, 0); // way 2, dead hint
    a.insert(101, 0); // way 3, dead hint
    ASSERT_EQ(a.deadInsertions().value(), before + 2);
    auto first = a.insert(3, 3);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->first, 100u);
    auto second = a.insert(4, 4);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->first, 101u);
}

TEST(SetAssocDeadEvict, HitOnDeadHintRedeemsTheKey)
{
    Array a(4, 4);
    ReusePredictor pred;
    a.attachReusePredictor(&pred);
    for (int round = 0; round < 3; ++round) {
        a.insert(100, 0);
        for (int i = 0; i < 4; ++i)
            a.insert(1000 + round * 10 + i, 0);
    }
    a.flushAll();
    a.insert(100, 7); // enters with a dead hint...
    const std::uint64_t deadHinted = a.deadInsertions().value();
    EXPECT_GT(deadHinted, 0u);
    ASSERT_NE(a.lookup(100), nullptr); // ...but is actually reused
    // Evicting a reused line resets its counter: the misprediction
    // is fully unlearned.
    for (int i = 0; i < 4; ++i)
        a.insert(200 + i, 0);
    a.insert(100, 7);
    EXPECT_EQ(a.deadInsertions().value(), deadHinted); // MRU entry
}

TEST(SetAssocDeadEvict, DeterministicAcrossIdenticalStreams)
{
    // The dead-entry policy is a pure function of the key stream —
    // the property that keeps serial and sharded runs bit-identical.
    auto run = [] {
        Array a(8, 4);
        ReusePredictor pred;
        a.attachReusePredictor(&pred);
        std::vector<std::uint64_t> evictions;
        for (int i = 0; i < 200; ++i) {
            if (i % 3 == 0)
                a.lookup(static_cast<std::uint64_t>(i % 7));
            if (auto d = a.insert(static_cast<std::uint64_t>(i % 23),
                                  i))
                evictions.push_back(d->first);
        }
        return evictions;
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace idyll
