/**
 * @file
 * Fundamental scalar types used across the simulator.
 */

#ifndef IDYLL_SIM_TYPES_HH
#define IDYLL_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace idyll
{

/** Simulated time, in core clock cycles (1 GHz base clock => 1 ns). */
using Tick = std::uint64_t;

/** Sentinel for "no scheduled time". */
constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();

/** Largest tick or delay a plan (--unplug, --faults) may name: a
 *  plan tick plus a plan delay then cannot wrap the clock. */
constexpr Tick kMaxPlanTick = kMaxTick / 4;

/** A latency or duration expressed in cycles. */
using Cycles = std::uint64_t;

/** Virtual address. */
using VAddr = std::uint64_t;

/** Physical address. */
using PAddr = std::uint64_t;

/** Virtual page number (address >> page shift). */
using Vpn = std::uint64_t;

/** Physical frame number. */
using Pfn = std::uint64_t;

/** GPU identifier; the host CPU uses the dedicated constant below. */
using GpuId = std::uint32_t;

/** Node id of the host CPU on the interconnect. */
constexpr GpuId kHostId = 0xFFFFFFFFu;

/** Sentinel for "no GPU / not resident on any GPU". */
constexpr GpuId kInvalidGpu = 0xFFFFFFFEu;

/**
 * Most GPUs one system models: GPU holder sets are 64-bit masks (ack
 * masks, oracle shadow state). Per-shard slices size themselves for
 * the host shard plus this many GPUs.
 */
constexpr std::uint32_t kMaxGpus = 64;

} // namespace idyll

#endif // IDYLL_SIM_TYPES_HH
