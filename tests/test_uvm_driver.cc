/**
 * @file
 * Unit tests for the UVM driver, using mock GPUs so every message and
 * state transition is observable: fault resolution, remote mapping,
 * the full migration handshake, directory filtering, and necessity
 * accounting.
 */

#include <gtest/gtest.h>

#include <map>

#include "interconnect/network.hh"
#include "mem/addr.hh"
#include "sim/event_queue.hh"
#include "uvm/uvm_driver.hh"

namespace idyll
{
namespace
{

/** Records driver->GPU traffic; acks invalidations immediately. */
class MockGpu : public GpuItf
{
  public:
    MockGpu(GpuId id, Network &net, DriverItf *&driver)
        : _id(id), _net(net), _driver(driver)
    {
    }

    GpuId id() const override { return _id; }

    void
    receiveInvalidation(Vpn vpn, std::uint32_t round) override
    {
        invalidations.push_back(vpn);
        lastRound = round;
        // Like the real GPU: judge necessity at receipt, before the
        // mapping is torn down, and ride the verdict on the ack.
        const bool wasValid = valid.count(vpn) != 0;
        valid.erase(vpn);
        if (dropAcks > 0) {
            --dropAcks;
            return;
        }
        const unsigned copies = 1 + duplicateAcks;
        duplicateAcks = 0;
        for (unsigned c = 0; c < copies; ++c) {
            _net.send(_id, kHostId, 32, MsgClass::InvalAck,
                      [this, vpn, round, wasValid] {
                          _driver->onInvalAck(_id, vpn, round, wasValid);
                      });
        }
    }

    void
    receiveNewMapping(Vpn vpn, Pfn pfn, bool writable) override
    {
        mappings.emplace_back(vpn, pfn);
        valid[vpn] = pfn;
        lastWritable = writable;
    }

    void applyInstantInvalidation(Vpn vpn) override { valid.erase(vpn); }

    bool
    hasValidMapping(Vpn vpn) const override
    {
        return valid.count(vpn) != 0;
    }

    void serveTransFwProbe(Vpn, GpuId) override {}
    void receiveTransFwReply(Vpn,
                             std::optional<ForwardedMapping>) override
    {
    }

    GpuId _id;
    Network &_net;
    DriverItf *&_driver;
    std::vector<Vpn> invalidations;
    std::vector<std::pair<Vpn, Pfn>> mappings;
    std::map<Vpn, Pfn> valid;
    bool lastWritable = true;
    std::uint32_t lastRound = 0;
    unsigned dropAcks = 0;      ///< swallow the next N acks
    unsigned duplicateAcks = 0; ///< send N extra copies of the next ack
};

struct DriverFixture : ::testing::Test
{
    DriverFixture()
    {
        cfg.numGpus = 4;
        cfg.validate();
        net = std::make_unique<Network>(eq, cfg);
        driver = std::make_unique<UvmDriver>(eq, cfg, *net,
                                             AddrLayout{cfg.pageBits});
        driverPtr = driver.get();
        std::vector<GpuItf *> itfs;
        for (GpuId g = 0; g < cfg.numGpus; ++g) {
            gpus.push_back(
                std::make_unique<MockGpu>(g, *net, driverPtr));
            itfs.push_back(gpus.back().get());
        }
        driver->attachGpus(itfs);
    }

    void
    fault(GpuId gpu, Vpn vpn, bool write = false)
    {
        driver->onFarFault(FaultRecord{vpn, gpu, write, eq.now()});
    }

    SystemConfig cfg;
    EventQueue eq;
    std::unique_ptr<Network> net;
    std::unique_ptr<UvmDriver> driver;
    DriverItf *driverPtr = nullptr;
    std::vector<std::unique_ptr<MockGpu>> gpus;
};

TEST_F(DriverFixture, FirstTouchAllocatesOnFaultingGpu)
{
    fault(2, 100);
    eq.run();
    ASSERT_EQ(gpus[2]->mappings.size(), 1u);
    EXPECT_EQ(gpus[2]->mappings[0].first, 100u);
    EXPECT_EQ(ownerOf(gpus[2]->mappings[0].second), 2u);
    EXPECT_EQ(driver->stats().firstTouches.value(), 1u);
    EXPECT_EQ(driver->residentPages(2), 1u);
    // Host page table agrees.
    const Pte *hpte = driver->hostPageTable().findValid(100);
    ASSERT_NE(hpte, nullptr);
    EXPECT_EQ(ownerOf(hpte->pfn()), 2u);
}

TEST_F(DriverFixture, SecondGpuGetsRemoteMapping)
{
    fault(0, 50);
    eq.run();
    fault(1, 50);
    eq.run();
    ASSERT_EQ(gpus[1]->mappings.size(), 1u);
    // GPU 1's mapping points into GPU 0's memory.
    EXPECT_EQ(ownerOf(gpus[1]->mappings[0].second), 0u);
    EXPECT_EQ(driver->stats().remoteMappings.value(), 1u);
    EXPECT_EQ(driver->residentPages(1), 0u);
}

TEST_F(DriverFixture, BroadcastMigrationInvalidatesEveryGpu)
{
    fault(0, 7);
    eq.run();
    fault(1, 7);
    eq.run();
    driver->onMigrationRequest(1, 7);
    eq.run();

    // Broadcast: all four GPUs received an invalidation.
    for (GpuId g = 0; g < 4; ++g)
        EXPECT_EQ(gpus[g]->invalidations.size(), 1u) << "gpu " << g;
    EXPECT_EQ(driver->stats().invalSent.value(), 4u);
    // GPUs 0 and 1 held mappings: 2 necessary, 2 unnecessary.
    EXPECT_EQ(driver->stats().invalNecessary.value(), 2u);
    EXPECT_EQ(driver->stats().invalUnnecessary.value(), 2u);

    // The page now lives on GPU 1 and GPU 1 got the new mapping.
    const Pte *hpte = driver->hostPageTable().findValid(7);
    ASSERT_NE(hpte, nullptr);
    EXPECT_EQ(ownerOf(hpte->pfn()), 1u);
    EXPECT_TRUE(gpus[1]->hasValidMapping(7));
    EXPECT_EQ(driver->stats().migrations.value(), 1u);
    EXPECT_EQ(driver->residentPages(0), 0u);
    EXPECT_EQ(driver->residentPages(1), 1u);
    EXPECT_GT(driver->stats().migrationWait.mean(), 0.0);
    EXPECT_GT(driver->stats().migrationTotal.mean(),
              driver->stats().migrationWait.mean());
}

TEST_F(DriverFixture, DirectoryFiltersUntouchedGpus)
{
    cfg.invalFilter = InvalFilter::InPteDirectory;
    driver = std::make_unique<UvmDriver>(eq, cfg, *net,
                                         AddrLayout{cfg.pageBits});
    driverPtr = driver.get();
    std::vector<GpuItf *> itfs;
    for (auto &gpu : gpus)
        itfs.push_back(gpu.get());
    driver->attachGpus(itfs);

    fault(0, 9);
    eq.run();
    fault(3, 9);
    eq.run();
    driver->onMigrationRequest(3, 9);
    eq.run();

    // Only the two GPUs with access bits set were invalidated.
    EXPECT_EQ(gpus[0]->invalidations.size(), 1u);
    EXPECT_EQ(gpus[3]->invalidations.size(), 1u);
    EXPECT_TRUE(gpus[1]->invalidations.empty());
    EXPECT_TRUE(gpus[2]->invalidations.empty());
    EXPECT_EQ(driver->stats().invalSent.value(), 2u);
    EXPECT_EQ(driver->stats().invalUnnecessary.value(), 0u);
}

TEST_F(DriverFixture, FaultDuringMigrationBlocksUntilDone)
{
    fault(0, 5);
    eq.run();
    fault(1, 5);
    eq.run();
    driver->onMigrationRequest(1, 5);
    // While the migration is in flight, GPU 2 faults on the page.
    fault(2, 5);
    eq.run();

    EXPECT_EQ(driver->stats().blockedFaults.value(), 1u);
    // After the migration, GPU 2 got a remote mapping to GPU 1.
    ASSERT_FALSE(gpus[2]->mappings.empty());
    EXPECT_EQ(ownerOf(gpus[2]->mappings.back().second), 1u);
}

TEST_F(DriverFixture, DuplicateMigrationRequestsIgnored)
{
    fault(0, 3);
    eq.run();
    fault(1, 3);
    eq.run();
    driver->onMigrationRequest(1, 3);
    driver->onMigrationRequest(1, 3);
    eq.run();
    EXPECT_EQ(driver->stats().migrations.value(), 1u);
    EXPECT_EQ(driver->stats().duplicateMigrationRequests.value(), 1u);
}

TEST_F(DriverFixture, MigrationToCurrentOwnerRefused)
{
    fault(0, 11);
    eq.run();
    driver->onMigrationRequest(0, 11);
    eq.run();
    EXPECT_EQ(driver->stats().migrations.value(), 0u);
}

TEST_F(DriverFixture, PrepopulatePlacesPageWithoutFaults)
{
    const Pfn pfn = driver->prepopulatePage(200, 3);
    EXPECT_EQ(ownerOf(pfn), 3u);
    EXPECT_EQ(driver->residentPages(3), 1u);
    EXPECT_EQ(driver->stats().farFaults.value(), 0u);
    // A later fault from another GPU resolves to a remote mapping.
    fault(1, 200);
    eq.run();
    ASSERT_FALSE(gpus[1]->mappings.empty());
    EXPECT_EQ(ownerOf(gpus[1]->mappings[0].second), 3u);
}

TEST_F(DriverFixture, DuplicateAcksAreIdempotent)
{
    fault(0, 7);
    eq.run();
    fault(1, 7);
    eq.run();
    gpus[0]->duplicateAcks = 2; // triple-ack the next invalidation
    driver->onMigrationRequest(1, 7);
    eq.run();

    EXPECT_EQ(driver->stats().migrations.value(), 1u);
    EXPECT_EQ(driver->stats().duplicateAcks.value(), 2u);
    EXPECT_GE(gpus[0]->lastRound, 1u); // rounds are carried end to end
    const Pte *hpte = driver->hostPageTable().findValid(7);
    ASSERT_NE(hpte, nullptr);
    EXPECT_EQ(ownerOf(hpte->pfn()), 1u);
}

TEST_F(DriverFixture, DroppedAckRecoveredByRetry)
{
    cfg.integrity.invalRetryTimeout = 5000;
    driver = std::make_unique<UvmDriver>(eq, cfg, *net,
                                         AddrLayout{cfg.pageBits});
    driverPtr = driver.get();
    std::vector<GpuItf *> itfs;
    for (auto &gpu : gpus)
        itfs.push_back(gpu.get());
    driver->attachGpus(itfs);

    fault(0, 12);
    eq.run();
    fault(1, 12);
    eq.run();
    gpus[2]->dropAcks = 1; // lose GPU 2's ack in flight
    driver->onMigrationRequest(1, 12);
    eq.run();

    // The retry timer fired, re-sent only the unacked target, and the
    // migration still completed.
    EXPECT_GE(driver->stats().invalRetryTimeouts.value(), 1u);
    EXPECT_GE(driver->stats().invalRetries.value(), 1u);
    EXPECT_EQ(gpus[2]->invalidations.size(), 2u);
    EXPECT_EQ(gpus[3]->invalidations.size(), 1u);
    EXPECT_EQ(driver->stats().migrations.value(), 1u);
    const Pte *hpte = driver->hostPageTable().findValid(12);
    ASSERT_NE(hpte, nullptr);
    EXPECT_EQ(ownerOf(hpte->pfn()), 1u);
    EXPECT_TRUE(gpus[1]->hasValidMapping(12));
}

} // namespace
} // namespace idyll
