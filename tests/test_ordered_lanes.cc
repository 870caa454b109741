/**
 * @file
 * Tests for OrderedLanes, the single-writer lane merge behind the
 * latency scoreboard's op log and the sharded JSONL trace: merge
 * order with lane-index tie-breaks, partial drains that keep items
 * at or above the limit queued in FIFO order, the order check (both
 * an installed handler and the default panic), and the single-writer
 * contract with one thread per lane (run under TSan in CI).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "sim/ordered_lanes.hh"

namespace idyll
{
namespace
{

struct Item
{
    Tick tick;
    int id;
};

using Lanes = OrderedLanes<Item, &Item::tick>;

std::vector<int>
drainAll(Lanes &lanes, Tick limit = kMaxTick)
{
    std::vector<int> ids;
    lanes.drainBelow(limit, [&](const Item &item) {
        ids.push_back(item.id);
    });
    return ids;
}

TEST(OrderedLanes, MergesByKeyThenLaneIndexThenFifo)
{
    Lanes lanes(3);
    lanes.push(2, {5, 20});
    lanes.push(2, {5, 21});
    lanes.push(0, {7, 0});
    lanes.push(1, {5, 10});
    lanes.push(1, {9, 11});
    lanes.push(0, {9, 1});
    // Key 5: lane 1 before lane 2, and lane 2 keeps its FIFO order.
    EXPECT_EQ(drainAll(lanes),
              (std::vector<int>{10, 20, 21, 0, 1, 11}));
    EXPECT_TRUE(drainAll(lanes).empty());
}

TEST(OrderedLanes, DrainBelowKeepsLaterItemsQueuedInFifoOrder)
{
    Lanes lanes(2);
    lanes.push(0, {1, 0});
    lanes.push(0, {4, 1});
    lanes.push(0, {4, 2});
    lanes.push(1, {3, 10});
    lanes.push(1, {6, 11});

    std::vector<int> ids;
    const std::size_t queued = lanes.drainBelow(
        4, [&](const Item &item) { ids.push_back(item.id); });
    EXPECT_EQ(ids, (std::vector<int>{0, 10}));
    EXPECT_EQ(queued, 3u);

    // A later push behind the queued items keeps lane FIFO order.
    lanes.push(0, {5, 3});
    EXPECT_EQ(drainAll(lanes, 6), (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(drainAll(lanes), (std::vector<int>{11}));
}

TEST(OrderedLanes, MergeOrderViolationRoutesToInstalledHandler)
{
    Lanes lanes(3);
    std::vector<std::string> caught;
    lanes.setViolationHandler(
        [&](const std::string &msg) { caught.push_back(msg); });
    // Different lanes at the same key are fine (lane index breaks the
    // tie); only a backwards step in the merged stream trips, also
    // across drains.
    lanes.push(0, {10, 0});
    lanes.push(1, {10, 1});
    EXPECT_EQ(drainAll(lanes), (std::vector<int>{0, 1}));
    EXPECT_TRUE(caught.empty());
    lanes.push(2, {4, 2});
    // The violating item still applies.
    EXPECT_EQ(drainAll(lanes), (std::vector<int>{2}));
    ASSERT_EQ(caught.size(), 1u);
    EXPECT_NE(caught[0].find("merge order violated"), std::string::npos);
}

TEST(OrderedLanes, MergeOrderViolationTripsTheHandlerDeathTest)
{
    // Two items on the same lane with DECREASING keys forge the
    // corruption a missed rendezvous flush would produce; the default
    // handler panics.
    EXPECT_DEATH(
        {
            Lanes lanes(2);
            lanes.push(0, {100, 0});
            lanes.push(0, {50, 1});
            drainAll(lanes);
        },
        "merge order violated");
}

TEST(OrderedLanes, OneWriterThreadPerLaneThenDrain)
{
    constexpr int kItems = 1000;
    Lanes lanes(2);
    auto writer = [&lanes](std::size_t lane) {
        for (int i = 0; i < kItems; ++i)
            lanes.push(lane, {static_cast<Tick>(i),
                              static_cast<int>(lane) * kItems + i});
    };
    std::thread t0(writer, 0);
    std::thread t1(writer, 1);
    t0.join();
    t1.join();

    const std::vector<int> ids = drainAll(lanes);
    ASSERT_EQ(ids.size(), 2u * kItems);
    for (int i = 0; i < kItems; ++i) {
        EXPECT_EQ(ids[2 * i], i);
        EXPECT_EQ(ids[2 * i + 1], kItems + i);
    }
}

} // namespace
} // namespace idyll
