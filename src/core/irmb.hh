/**
 * @file
 * Invalidation Request Merging Buffer (IRMB) — Section 6.3.
 *
 * Buffers incoming PTE invalidation requests so the local page table
 * can be updated lazily, off the critical path of demand TLB misses.
 * Requests whose VPNs share all bits above the lowest page-table
 * level (the 36-bit "base" = L5..L2 for 4 KB pages) coalesce into one
 * merged entry holding up to N 9-bit "offsets" (the L1 bits).
 *
 * Geometry per the paper: 32 merged entries x 16 offsets; each entry
 * stores a 36-bit base + 16 x 9-bit offsets = 180 bits; total 720 B.
 *
 * Eviction:
 *  - base array full  -> evict the LRU merged entry; its offsets are
 *    written back to the page table as one batch invalidation.
 *  - offset set full  -> flush that entry's offsets (batch) and reuse
 *    the entry for the incoming offset.
 *  - idle walker      -> opportunistically write back the LRU entry.
 */

#ifndef IDYLL_CORE_IRMB_HH
#define IDYLL_CORE_IRMB_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mem/addr.hh"
#include "sim/config.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace idyll
{

/** IRMB statistics. */
struct IrmbStats
{
    Counter inserts;         ///< invalidation requests buffered
    Counter merges;          ///< inserts that matched an existing base
    Counter duplicates;      ///< inserts whose offset was already held
    Counter lookupHits;      ///< demand probes that hit (walk bypassed)
    Counter lookupMisses;
    Counter baseEvictions;   ///< merged entries evicted (capacity)
    Counter offsetFlushes;   ///< entries flushed because offsets filled
    Counter idleWritebacks;  ///< entries drained by an idle walker
    Counter elided;          ///< invalidations removed by a new mapping
    Counter writtenBack;     ///< individual VPNs sent to the walker
    Counter scrubbed;        ///< VPNs discarded by a hot-unplug scrub
};

/** The merging buffer. */
class Irmb
{
  public:
    Irmb(const IrmbConfig &cfg, const AddrLayout &layout);

    /** A batch of VPNs (sharing one base) to invalidate in the PT. */
    using Batch = std::vector<Vpn>;

    /**
     * Buffer an invalidation request for @p vpn.
     * @return a batch the caller must submit to the GMMU if the
     *         insertion forced an eviction/flush, else nullopt.
     */
    std::optional<Batch> insert(Vpn vpn);

    /** Demand-side probe, performed in parallel with the L2 TLB. */
    bool lookup(Vpn vpn);

    /** Probe without touching statistics or LRU state. */
    bool contains(Vpn vpn) const;

    /**
     * A new mapping arrived for @p vpn: the pending invalidation is
     * elided because the PTE will be overwritten directly.
     * @return true if an offset was removed.
     */
    bool removeForNewMapping(Vpn vpn);

    /**
     * Drain the LRU entry for an idle walker.
     * @return the batch to invalidate, or nullopt if the IRMB is empty.
     */
    std::optional<Batch> drainLru();

    /**
     * Hot-unplug teardown: discard every buffered invalidation without
     * writing anything back. The local page table is being torn down
     * wholesale, so the lazily-deferred PTE updates are moot.
     * @return number of buffered VPNs discarded.
     */
    std::size_t scrubAll();

    /** Number of buffered VPNs across all entries. */
    std::size_t pendingVpns() const;

    /** Number of live merged entries. */
    std::size_t liveEntries() const;

    /** Hardware cost in bytes (see IrmbConfig::sizeBytes). */
    std::uint64_t sizeBytes() const { return _cfg.sizeBytes(); }

    const IrmbStats &stats() const { return _stats; }

    /** Attach the owning GPU's tracer for merge/flush/drain events. */
    void
    setTracer(Tracer *tracer, GpuId gpu)
    {
        _tracer = tracer;
        _gpu = gpu;
    }

  private:
    struct MergedEntry
    {
        bool valid = false;
        std::uint64_t base = 0;
        std::vector<std::uint32_t> offsets;
        std::uint64_t lastUse = 0;
    };

    MergedEntry *findBase(std::uint64_t base);
    const MergedEntry *findBase(std::uint64_t base) const;
    MergedEntry *lruEntry();
    Batch flushEntry(MergedEntry &entry);

    IrmbConfig _cfg;
    AddrLayout _layout;
    std::vector<MergedEntry> _entries;
    /**
     * base -> index into _entries for every valid entry, so the
     * demand-side probes (contains/lookup, performed in parallel with
     * every L2 TLB access) are O(1) instead of O(bases). Maintained at
     * every point an entry is claimed, evicted, drained, or emptied.
     */
    std::unordered_map<std::uint64_t, std::uint32_t> _baseIndex;
    std::uint64_t _clock = 0;
    IrmbStats _stats;
    Tracer *_tracer = nullptr;
    GpuId _gpu = 0;
};

} // namespace idyll

#endif // IDYLL_CORE_IRMB_HH
