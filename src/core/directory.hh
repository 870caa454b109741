/**
 * @file
 * In-PTE Directory Invalidation helper — Section 6.2.
 *
 * The directory state itself lives in the host page table's unused
 * PTE bits (62..52); this class centralizes the hash-slot math, the
 * GPU-set <-> bit-mask conversions, and the false-positive statistics
 * so the UVM driver stays readable.
 */

#ifndef IDYLL_CORE_DIRECTORY_HH
#define IDYLL_CORE_DIRECTORY_HH

#include <cstdint>
#include <vector>

#include "mem/pte.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace idyll
{

/**
 * Upper bound on GPUs a directory instance will accept, matching the
 * device-id field of makeDevicePfn. The fig18 GPU-count sweep goes
 * past 64, so targets() must not assume GPU ids fit a 64-bit mask.
 */
constexpr std::uint32_t kMaxDirectoryGpus = 4096;

/** Directory statistics. */
struct DirectoryStats : MetricsGroup
{
    DirectoryStats() : MetricsGroup("directory") {}

    Counter bitSets{*this, "bitSets"};
    Counter lookups{*this, "lookups"};
    /// GPUs chosen to receive invalidations
    Counter targetsSelected{*this, "targetsSelected"};
    /// GPUs skipped relative to broadcast
    Counter broadcastAvoided{*this, "broadcastAvoided"};
    /// dead-GPU slots cleared on hot-unplug
    Counter scrubbedBits{*this, "scrubbedBits"};
    /// dead-GPU slots kept (alive GPU aliases)
    Counter scrubAliased{*this, "scrubAliased"};
};

/** Hash-mapped access-bit directory over the host PTE's unused bits. */
class InPteDirectory
{
  public:
    /**
     * @param numGpus GPUs in the system.
     * @param bits    usable unused bits m (1..11); h(g) = g % m.
     */
    InPteDirectory(std::uint32_t numGpus, std::uint32_t bits);

    /**
     * Mark @p gpu as holding a valid mapping in @p pte.
     * @p vpn identifies the page for tracing only.
     */
    void markAccess(Pte &pte, GpuId gpu, Vpn vpn = 0);

    /**
     * GPUs to invalidate for a migration, from @p pte's access bits.
     * Hash aliasing can return GPUs that never touched the page
     * (false positives) but never misses a holder.
     */
    std::vector<GpuId> targets(const Pte &pte, Vpn vpn = 0);

    /** Clear every access bit (done when invalidations are sent). */
    void
    clear(Pte &pte, Vpn vpn = 0)
    {
        pte.clearAccessBits();
        IDYLL_TRACE(_tracer, DirClear, kHostId, vpn);
    }

    /**
     * Hot-unplug scrub: clear @p deadGpu's access-bit slot in @p pte,
     * but only if no *alive* GPU hashes to the same slot — clearing an
     * aliased slot would silently under-invalidate the alive holder,
     * which is fatal. Leaving the bit set is always safe because dead
     * GPUs are filtered out of invalidation target sets by the driver.
     *
     * @param deadMask bit g set = GPU g is currently unplugged.
     * @return true if the slot bit was cleared.
     */
    bool scrubDeadBit(Pte &pte, GpuId deadGpu, std::uint64_t deadMask,
                      Vpn vpn = 0);

    std::uint32_t bits() const { return _bits; }
    const DirectoryStats &stats() const { return _stats; }

    /** Attach the host-side tracer for set/clear/targets events. */
    void setTracer(Tracer *tracer) { _tracer = tracer; }

  private:
    std::uint32_t _numGpus;
    std::uint32_t _bits;
    DirectoryStats _stats;
    Tracer *_tracer = nullptr;
};

} // namespace idyll

#endif // IDYLL_CORE_DIRECTORY_HH
