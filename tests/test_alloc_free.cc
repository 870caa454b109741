/**
 * @file
 * Allocation-free hot paths: once the event arena and the per-page
 * tables are warm, a network message and a remote TLB-hit access run
 * from send/issue to delivery without touching the heap. Counted with
 * the test binary's operator new replacement (alloc_counter.hh), so
 * any continuation that stops fitting its inline buffer, or any new
 * per-event container, fails here. A whole KM/IDYLL run is held to a
 * budget of heap allocations per simulated access.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>

#include "alloc_counter.hh"
#include "harness/cli.hh"
#include "harness/system.hh"
#include "interconnect/network.hh"

namespace idyll
{
namespace
{

TEST(AllocationFree, WarmNetworkSendsAllocateNothing)
{
    EventQueue eq;
    SystemConfig cfg;
    cfg.numGpus = 2;
    Network net(eq, cfg);

    std::uint64_t delivered = 0;
    // 40 bytes of capture: past std::function's small-buffer limit.
    const std::array<std::uint64_t, 4> payload{1, 2, 3, 4};
    auto sendBurst = [&] {
        for (int i = 0; i < 1000; ++i)
            net.send(0, 1, 64, MsgClass::Control, [&delivered, payload] {
                delivered += payload[3];
            });
        eq.run();
    };
    const std::uint64_t cold = test::threadAllocations();
    sendBurst(); // warm-up: grows the event arena to the burst size
    ASSERT_GT(test::threadAllocations(), cold)
        << "operator new is not being counted";

    const std::uint64_t before = test::threadAllocations();
    sendBurst();
    EXPECT_EQ(test::threadAllocations() - before, 0u);
    EXPECT_EQ(delivered, 2u * 1000u * 4u);
}

TEST(AllocationFree, WarmRemoteTlbHitsAllocateNothing)
{
    SystemConfig cfg;
    cfg.numGpus = 2;
    cfg.cusPerGpu = 2;
    cfg.warpsPerCu = 2;
    // Keep the page where it is: no migration request ever fires.
    cfg.accessCounterThreshold = std::numeric_limits<std::uint32_t>::max();
    MultiGpuSystem sys(cfg);
    const VAddr va = 9 << 12;
    // GPU 0 touches first, so the page lives there; GPU 1 then faults
    // in a remote mapping.
    sys.gpu(0).access(0, va, false);
    sys.eventQueue().run();
    Gpu &gpu = sys.gpu(1);

    auto accessBurst = [&] {
        for (int i = 0; i < 1000; ++i)
            gpu.access(0, va, false);
        sys.eventQueue().run();
    };
    accessBurst(); // warm-up: remote mapping, TLB fill, event arena

    const std::uint64_t faults = gpu.stats().farFaultsRaised.value();
    const std::uint64_t remote = gpu.stats().remoteAccesses.value();
    const std::uint64_t completed = gpu.completedAccesses();
    const std::uint64_t before = test::threadAllocations();
    accessBurst();
    EXPECT_EQ(test::threadAllocations() - before, 0u);

    EXPECT_EQ(gpu.stats().farFaultsRaised.value(), faults);
    EXPECT_EQ(gpu.stats().remoteAccesses.value(), remote + 1000);
    EXPECT_EQ(gpu.completedAccesses(), completed + 1000);
}

TEST(AllocationBudget, KmIdyllRunAllocatesUnderHalfPerAccess)
{
    // The whole drain: misses, walks, faults, migrations and
    // invalidation rounds included. MSHR entries keep their first
    // waiters inline and every per-page table is a FlatVpnMap, so
    // what remains is mostly walk requests and invalidation targets.
    const CliParse parsed = parseCli(
        {"--app", "KM", "--scheme", "idyll", "--gpus", "4", "--scale",
         "0.25"});
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    MultiGpuSystem sys(parsed.options->config);
    sys.launch(Workload::byName(parsed.options->app,
                                parsed.options->scale));
    const std::uint64_t before = test::threadAllocations();
    sys.eventQueue().run();
    const std::uint64_t allocs = test::threadAllocations() - before;
    const SimResults r = sys.finish(parsed.options->app);
    ASSERT_GT(r.accesses, 0u);
    const double perAccess =
        static_cast<double>(allocs) / static_cast<double>(r.accesses);
    EXPECT_LE(perAccess, 0.5) << allocs << " allocations over "
                              << r.accesses << " accesses";
}

} // namespace
} // namespace idyll
