/**
 * @file
 * Tests for the compute-unit model: stream draining, instruction
 * accounting, completion, and warp-level latency hiding.
 */

#include <gtest/gtest.h>

#include "harness/system.hh"

namespace idyll
{
namespace
{

/** A scripted stream: N accesses to the same page, fixed compute. */
class ScriptedStream : public CuStream
{
  public:
    ScriptedStream(std::uint64_t items, Cycles compute, Vpn vpn)
        : _items(items), _compute(compute), _vpn(vpn)
    {
    }

    std::optional<WorkItem>
    next() override
    {
        if (_items == 0)
            return std::nullopt;
        --_items;
        return WorkItem{_vpn << 12, false, _compute};
    }

  private:
    std::uint64_t _items;
    Cycles _compute;
    Vpn _vpn;
};

SystemConfig
cuCfg(std::uint32_t warps)
{
    SystemConfig cfg;
    cfg.numGpus = 1;
    cfg.cusPerGpu = 1;
    cfg.warpsPerCu = warps;
    return cfg;
}

/** Run one CU over a scripted stream; return the finish tick. */
Tick
runCu(std::uint32_t warps, std::uint64_t items, Cycles compute)
{
    MultiGpuSystem sys(cuCfg(warps));
    std::vector<std::unique_ptr<CuStream>> streams;
    streams.push_back(
        std::make_unique<ScriptedStream>(items, compute, 7));
    sys.gpu(0).launch(std::move(streams));
    sys.eventQueue().run();
    EXPECT_TRUE(sys.gpu(0).allCusDone());
    EXPECT_EQ(sys.gpu(0).completedAccesses(), items);
    return sys.gpu(0).finishTick();
}

TEST(ComputeUnit, DrainsExactlyTheStream)
{
    MultiGpuSystem sys(cuCfg(2));
    std::vector<std::unique_ptr<CuStream>> streams;
    streams.push_back(std::make_unique<ScriptedStream>(20, 5, 3));
    sys.gpu(0).launch(std::move(streams));
    sys.eventQueue().run();
    EXPECT_EQ(sys.gpu(0).stats().accesses.value(), 20u);
    EXPECT_EQ(sys.gpu(0).completedAccesses(), 20u);
    // instructions = sum(computeCycles + 1) = 20 * 6.
    EXPECT_EQ(sys.gpu(0).stats().instructions.value(), 120u);
}

TEST(ComputeUnit, EmptyStreamCompletesImmediately)
{
    MultiGpuSystem sys(cuCfg(4));
    std::vector<std::unique_ptr<CuStream>> streams;
    streams.push_back(std::make_unique<ScriptedStream>(0, 0, 0));
    sys.gpu(0).launch(std::move(streams));
    // All warp contexts retire synchronously.
    EXPECT_TRUE(sys.gpu(0).allCusDone());
    EXPECT_EQ(sys.gpu(0).finishTick(), 0u);
}

TEST(ComputeUnit, MoreWarpContextsHideMemoryLatency)
{
    const Tick one_warp = runCu(1, 64, 0);
    const Tick four_warps = runCu(4, 64, 0);
    // Four contexts overlap four memory accesses: substantially
    // faster, though not perfectly 4x (shared stream, same page).
    EXPECT_LT(four_warps * 2, one_warp);
}

TEST(ComputeUnit, ComputeSerializesWhenDominant)
{
    // With huge compute per item and one warp, execution time is
    // essentially items * compute.
    const Tick t = runCu(1, 10, 10000);
    EXPECT_GE(t, 10u * 10000u);
    EXPECT_LE(t, 10u * 10000u + 10u * 2500u); // + translation/data
}

TEST(ComputeUnitDeath, LaunchValidatesStreamCount)
{
    MultiGpuSystem sys(cuCfg(2));
    std::vector<std::unique_ptr<CuStream>> streams; // empty: wrong
    EXPECT_DEATH(sys.gpu(0).launch(std::move(streams)),
                 "streams");
}

} // namespace
} // namespace idyll
