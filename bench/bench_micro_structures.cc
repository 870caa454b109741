/**
 * @file
 * Micro-benchmarks (google-benchmark) for the core hardware
 * structures: IRMB insert/lookup, TLB probe/fill, page-table walks,
 * MMU-cache probes, and VM-Cache directory accesses. These
 * guard the simulator's own performance (the structures sit on the
 * per-access hot path of every simulation).
 */

#include <benchmark/benchmark.h>

#include <array>

#include "core/irmb.hh"
#include "core/transfw.hh"
#include "core/vm_directory.hh"
#include "gmmu/mmu_cache.hh"
#include "mem/page_table.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "tlb/tlb.hh"

namespace
{

using namespace idyll;

/**
 * Event-dispatch throughput with a payload that mimics the simulator's
 * real scheduling sites (a `this` pointer plus a handful of words, the
 * shape of the GMMU/GPU/driver lambdas). Each fired event reschedules
 * itself, so the benchmark measures the schedule -> pop -> invoke ->
 * recycle round trip rather than queue growth. items_per_second is the
 * events/sec figure the perf-smoke CI job records.
 */
struct PingPonger
{
    EventQueue *eq;
    std::uint64_t *fired;
    int left;
    std::array<std::uint64_t, 6> payload;

    void
    operator()()
    {
        ++*fired;
        benchmark::DoNotOptimize(payload);
        if (--left > 0)
            eq->schedule(1, PingPonger{*this});
    }
};

void
BM_EventQueuePingPong(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        constexpr int kChain = 1024;
        eq.schedule(1, PingPonger{&eq, &fired, kChain, {}});
        eq.run();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_EventQueuePingPong);

/**
 * Dispatch throughput with a deep heap: N pending events at random
 * ticks stress the sift-up/sift-down paths the way a busy multi-GPU
 * run does (tens of thousands of in-flight messages and walker
 * completions).
 */
void
BM_EventQueueDeepHeap(benchmark::State &state)
{
    EventQueue eq;
    Rng rng(29);
    const int depth = static_cast<int>(state.range(0));
    std::uint64_t fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < depth; ++i) {
            eq.schedule(1 + rng.below(4096),
                        PingPonger{&eq, &fired, 1, {}});
        }
        eq.run();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_EventQueueDeepHeap)->Arg(1024)->Arg(16384);

/**
 * Steady-state dispatch: N events stay pending while each fired event
 * schedules one replacement, the way a running simulation holds one
 * in-flight event per busy warp. Delays follow the mix measured on
 * the fig11/serve/shard32 runs (about 30% under 16 cycles, 55% in
 * 16-255, 15% in 256-4095), and one event in three is a delivery with
 * a unique key. Unlike DeepHeap, the queue never drains.
 */
class SteadyMix
{
  public:
    SteadyMix(EventQueue &eq, std::size_t pending) : _eq(eq)
    {
        Rng rng(31);
        for (Cycles &delay : _delays) {
            const std::uint64_t roll = rng.below(100);
            delay = roll < 30   ? 1 + rng.below(15)
                    : roll < 85 ? 16 + rng.below(240)
                                : 256 + rng.below(3840);
        }
        for (std::size_t i = 0; i < pending; ++i)
            spawn();
    }

    void
    spawn()
    {
        const Cycles delay = _delays[_cursor % _delays.size()];
        if (++_cursor % 3 == 0)
            _eq.scheduleDelivery(_eq.now() + delay, _nextKey++,
                                 Fire{this, {}});
        else
            _eq.schedule(delay, Fire{this, {}});
    }

  private:
    struct Fire
    {
        SteadyMix *mix;
        std::array<std::uint64_t, 5> payload;

        void
        operator()()
        {
            benchmark::DoNotOptimize(payload);
            mix->spawn();
        }
    };

    EventQueue &_eq;
    std::array<Cycles, 4096> _delays{};
    std::uint64_t _cursor = 0;
    /** Delivery keys in the interconnect's range (lane ids from 1). */
    std::uint64_t _nextKey = std::uint64_t{1} << 48;
};

void
BM_EventQueueSteadyMix(benchmark::State &state)
{
    EventQueue eq;
    SteadyMix mix(eq, static_cast<std::size_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(eq.step());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueSteadyMix)->Arg(512)->Arg(4096)->Arg(32768);

void
BM_IrmbInsert(benchmark::State &state)
{
    IrmbConfig cfg{static_cast<std::uint32_t>(state.range(0)), 16};
    Irmb irmb(cfg, kLayout4K);
    Rng rng(7);
    for (auto _ : state) {
        auto batch = irmb.insert(rng.below(1 << 20));
        benchmark::DoNotOptimize(batch);
    }
}
BENCHMARK(BM_IrmbInsert)->Arg(16)->Arg(32)->Arg(64);

void
BM_IrmbLookup(benchmark::State &state)
{
    Irmb irmb(IrmbConfig{32, 16}, kLayout4K);
    Rng rng(7);
    for (int i = 0; i < 400; ++i)
        irmb.insert(rng.below(1 << 14));
    for (auto _ : state)
        benchmark::DoNotOptimize(irmb.contains(rng.below(1 << 14)));
}
BENCHMARK(BM_IrmbLookup);

void
BM_TlbProbe(benchmark::State &state)
{
    SystemConfig cfg;
    Tlb tlb(cfg.l2Tlb);
    Rng rng(11);
    for (int i = 0; i < 512; ++i)
        tlb.fill(i, TlbEntry{static_cast<Pfn>(i), true});
    for (auto _ : state)
        benchmark::DoNotOptimize(tlb.probe(rng.below(1024)));
}
BENCHMARK(BM_TlbProbe);

/**
 * Shootdowns on a Table 2 GPU (64 CUs) whose L1s are all full, each
 * with its own 32 pages. Arg 0 shoots down pages no TLB holds, the
 * common case (an L2 set probe plus one index probe; no L1 is
 * visited). Arg 1 shoots down a resident page and refills it, so each
 * iteration is one shootdown plus one fill.
 */
void
BM_TlbHierarchyShootdown(benchmark::State &state)
{
    SystemConfig cfg;
    TlbHierarchy h(cfg);
    const std::uint32_t cus = h.numCus();
    const std::uint32_t perCu = cfg.l1Tlb.entries;
    for (std::uint32_t cu = 0; cu < cus; ++cu)
        for (std::uint32_t i = 0; i < perCu; ++i)
            h.fill(cu, cu * perCu + i, TlbEntry{cu * perCu + i, true});
    const bool resident = state.range(0) != 0;
    const Vpn pages = Vpn{cus} * perCu;
    Rng rng(17);
    for (auto _ : state) {
        if (resident) {
            const Vpn vpn = rng.below(pages);
            benchmark::DoNotOptimize(h.shootdown(vpn));
            h.fill(static_cast<std::uint32_t>(vpn / perCu), vpn,
                   TlbEntry{vpn, true});
        } else {
            benchmark::DoNotOptimize(h.shootdown(pages + rng.below(pages)));
        }
    }
}
BENCHMARK(BM_TlbHierarchyShootdown)->Arg(0)->Arg(1);

void
BM_PageTableWalk(benchmark::State &state)
{
    RadixPageTable pt(kLayout4K);
    Rng rng(13);
    for (int i = 0; i < 1 << 15; ++i)
        pt.install(i, makeDevicePfn(0, i));
    for (auto _ : state)
        benchmark::DoNotOptimize(pt.find(rng.below(1 << 15)));
}
BENCHMARK(BM_PageTableWalk);

void
BM_MmuCacheProbe(benchmark::State &state)
{
    SystemConfig cfg;
    MmuCacheHierarchy caches(cfg.gmmu, kLayout4K);
    Rng rng(17);
    for (int i = 0; i < 4096; i += 64)
        caches.fill(i, 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            caches.deepestValidHit(rng.below(4096), 1));
}
BENCHMARK(BM_MmuCacheProbe);

void
BM_VmDirectory(benchmark::State &state)
{
    VmCacheConfig cfg;
    VmDirectory dir(cfg, 4);
    Rng rng(19);
    for (auto _ : state) {
        auto access = dir.setBit(rng.below(1 << 12),
                                 static_cast<GpuId>(rng.below(4)));
        benchmark::DoNotOptimize(access);
    }
}
BENCHMARK(BM_VmDirectory);

void
BM_TransFwPrt(benchmark::State &state)
{
    TransFwConfig cfg;
    cfg.enabled = true;
    TransFwPrt prt(cfg, 0);
    Rng rng(23);
    for (int i = 0; i < 500; ++i)
        prt.record(1 + static_cast<GpuId>(rng.below(3)),
                   rng.below(1 << 14));
    for (auto _ : state)
        benchmark::DoNotOptimize(prt.probe(rng.below(1 << 14)));
}
BENCHMARK(BM_TransFwPrt);

} // namespace
