/**
 * @file
 * IDYLL-InMem: VM-Table + VM-Cache directory — Section 6.4.
 *
 * When the host PTE's unused bits are reserved for other purposes,
 * GPU residency is tracked in an in-memory table (VM-Table, 64-bit
 * entries: 45-bit VPN tag + 19 access-bit slots) fronted by a small
 * hardware cache (VM-Cache: 64 entries, 4-way, write-allocate,
 * write-back). GPU ids hash onto the 19 slots with g % 19.
 */

#ifndef IDYLL_CORE_VM_DIRECTORY_HH
#define IDYLL_CORE_VM_DIRECTORY_HH

#include <cstdint>
#include <vector>

#include "cache/set_assoc.hh"
#include "sim/config.hh"
#include "sim/flat_vpn_map.hh"
#include "sim/metrics.hh"
#include "sim/types.hh"

namespace idyll
{

/** Slots available in a VM-Table entry. */
constexpr std::uint32_t kVmTableSlots = 19;

/** Outcome of a directory access, with the latency it consumed. */
struct VmDirAccess
{
    std::uint32_t bitsMask = 0; ///< slot mask before any clearing
    bool cacheHit = false;
    Cycles latency = 0;
};

/** VM directory statistics. */
struct VmDirectoryStats : MetricsGroup
{
    VmDirectoryStats() : MetricsGroup("vmDirectory") {}

    Counter cacheHits{*this, "cacheHits"};
    Counter cacheMisses{*this, "cacheMisses"};
    Counter tableReads{*this, "tableReads"};
    Counter writebacks{*this, "writebacks"};
    Counter bitSets{*this, "bitSets"};
    Counter migrationLookups{*this, "migrationLookups"};
    /// dead-GPU slots cleared on hot-unplug
    Counter scrubbedBits{*this, "scrubbedBits"};
    /// dead-GPU slots kept (alive GPU aliases)
    Counter scrubAliased{*this, "scrubAliased"};
};

/** The in-memory directory with its cache. */
class VmDirectory
{
  public:
    VmDirectory(const VmCacheConfig &cfg, std::uint32_t numGpus);

    /** Slot for a GPU: g % 19. */
    static std::uint32_t slotOf(GpuId gpu) { return gpu % kVmTableSlots; }

    /**
     * Migration-side lookup: fetch the access bits for @p vpn and
     * clear every slot except the migration initiator's.
     */
    VmDirAccess fetchAndClear(Vpn vpn, GpuId initiator);

    /** Fault-side update: set @p gpu's slot for @p vpn. */
    VmDirAccess setBit(Vpn vpn, GpuId gpu);

    /** GPUs whose slot is set in @p bitsMask (expands hash aliases). */
    std::vector<GpuId> expand(std::uint32_t bitsMask) const;

    /**
     * Hot-unplug scrub: clear @p deadGpu's slot across the VM-Cache
     * and the VM-Table — but only when no *alive* GPU hashes to the
     * same slot (clearing an aliased slot would under-invalidate the
     * alive holder). Leaving the bit set is safe: dead GPUs are
     * filtered out of invalidation target sets by the driver.
     *
     * @param deadMask bit g set = GPU g is currently unplugged.
     * @return number of entries whose slot bit was cleared.
     */
    std::size_t scrubGpu(GpuId deadGpu, std::uint64_t deadMask);

    /** VM-Table entries currently allocated. */
    std::size_t tableEntries() const { return _table.size(); }

    /** VM-Table bytes for a given footprint (8 B per page). */
    static std::uint64_t
    tableBytes(std::uint64_t pages)
    {
        return pages * 8;
    }

    /** VM-Cache hardware bytes: (41 tag + 19 bits) x entries / 8. */
    std::uint64_t cacheBytes() const;

    const VmDirectoryStats &stats() const { return _stats; }

  private:
    /** Access through the cache; returns current bits and latency. */
    std::uint32_t *cached(Vpn vpn, bool &hit);

    VmCacheConfig _cfg;
    std::uint32_t _numGpus;
    SetAssocArray<Vpn, std::uint32_t> _cache;
    FlatVpnMap<std::uint32_t> _table;
    VmDirectoryStats _stats;
};

} // namespace idyll

#endif // IDYLL_CORE_VM_DIRECTORY_HH
