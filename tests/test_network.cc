/**
 * @file
 * Unit tests for the interconnect model: latency, serialization, FIFO
 * ordering per link, and traffic accounting.
 */

#include <gtest/gtest.h>

#include "interconnect/network.hh"

namespace idyll
{
namespace
{

struct NetFixture : ::testing::Test
{
    NetFixture()
    {
        cfg.numGpus = 4;
        cfg.interGpuLink = LinkConfig{300.0, 250};
        cfg.hostLink = LinkConfig{32.0, 600};
        net = std::make_unique<Network>(eq, cfg);
    }

    EventQueue eq;
    SystemConfig cfg;
    std::unique_ptr<Network> net;
};

TEST_F(NetFixture, SmallMessageArrivesAfterSerPlusLatency)
{
    Tick arrived = 0;
    net->send(0, 1, 64, MsgClass::Control, [&] { arrived = eq.now(); });
    eq.run();
    // ceil(64/300) = 1 cycle serialization + 250 latency.
    EXPECT_EQ(arrived, 251u);
}

TEST_F(NetFixture, HostLinkIsSlower)
{
    Tick arrived = 0;
    net->send(0, kHostId, 64, MsgClass::FarFault,
              [&] { arrived = eq.now(); });
    eq.run();
    // ceil(64/32) = 2 + 600.
    EXPECT_EQ(arrived, 602u);
}

TEST_F(NetFixture, BulkTransferSerializes)
{
    Tick arrived = 0;
    net->send(0, 1, 4096, MsgClass::PageData,
              [&] { arrived = eq.now(); });
    eq.run();
    // ceil(4096/300) = 14 + 250.
    EXPECT_EQ(arrived, 264u);
}

TEST_F(NetFixture, BackToBackMessagesQueueFifo)
{
    std::vector<int> order;
    Tick first = 0, second = 0;
    net->send(0, 1, 4096, MsgClass::Control, [&] {
        order.push_back(1);
        first = eq.now();
    });
    net->send(0, 1, 64, MsgClass::Control, [&] {
        order.push_back(2);
        second = eq.now();
    });
    eq.run();
    ASSERT_EQ(order, (std::vector<int>{1, 2}));
    // The second message waited for the first's 14 serialization
    // cycles: 14 + 1 + 250.
    EXPECT_EQ(first, 264u);
    EXPECT_EQ(second, 265u);
    EXPECT_GT(net->queueDelay().sum(), 0.0);
}

TEST_F(NetFixture, ControlBypassesBulkOnItsOwnLane)
{
    // GPU<->GPU links carry bulk page payloads on a separate virtual
    // channel, so a control message does NOT queue behind an earlier
    // bulk transfer on the same link.
    std::vector<int> order;
    Tick bulk = 0, control = 0;
    net->send(0, 1, 4096, MsgClass::PageData, [&] {
        order.push_back(1);
        bulk = eq.now();
    });
    net->send(0, 1, 64, MsgClass::Control, [&] {
        order.push_back(2);
        control = eq.now();
    });
    eq.run();
    ASSERT_EQ(order, (std::vector<int>{2, 1}));
    EXPECT_EQ(bulk, 264u);    // ceil(4096/300) + 250
    EXPECT_EQ(control, 251u); // unaffected by the bulk serialization
}

TEST_F(NetFixture, IndependentLinksDoNotInterfere)
{
    Tick a = 0, b = 0;
    net->send(0, 1, 4096, MsgClass::PageData, [&] { a = eq.now(); });
    net->send(2, 3, 64, MsgClass::Control, [&] { b = eq.now(); });
    eq.run();
    EXPECT_EQ(a, 264u);
    EXPECT_EQ(b, 251u); // unaffected by the 0->1 bulk transfer
}

TEST_F(NetFixture, PerClassAccounting)
{
    net->send(0, 1, 100, MsgClass::Invalidation, [] {});
    net->send(0, 1, 100, MsgClass::Invalidation, [] {});
    net->send(1, 0, 50, MsgClass::InvalAck, [] {});
    eq.run();
    EXPECT_EQ(net->classMessages(MsgClass::Invalidation).value(), 2u);
    EXPECT_EQ(net->classBytes(MsgClass::Invalidation).value(), 200u);
    EXPECT_EQ(net->classMessages(MsgClass::InvalAck).value(), 1u);
    EXPECT_EQ(net->totalBytes(), 250u);
}

TEST_F(NetFixture, BaseLatencyDistinguishesLinkKinds)
{
    EXPECT_EQ(net->baseLatency(0, 1), 250u);
    EXPECT_EQ(net->baseLatency(0, kHostId), 600u);
    EXPECT_EQ(net->baseLatency(kHostId, 3), 600u);
}

TEST_F(NetFixture, LoopbackSendPanics)
{
    EXPECT_DEATH(net->send(1, 1, 64, MsgClass::Control, [] {}),
                 "loopback");
}

} // namespace
} // namespace idyll
