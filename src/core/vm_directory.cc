#include "core/vm_directory.hh"

#include "sim/logging.hh"

namespace idyll
{

VmDirectory::VmDirectory(const VmCacheConfig &cfg, std::uint32_t numGpus)
    : _cfg(cfg), _numGpus(numGpus), _cache(cfg.entries, cfg.ways)
{
}

std::uint32_t *
VmDirectory::cached(Vpn vpn, bool &hit)
{
    if (std::uint32_t *bits = _cache.lookup(vpn)) {
        hit = true;
        _stats.cacheHits.inc();
        return bits;
    }
    hit = false;
    _stats.cacheMisses.inc();
    _stats.tableReads.inc();

    // Miss: read (or create) the VM-Table entry, allocate in the
    // cache, and write back whatever the allocation displaces.
    const std::uint32_t *held = _table.find(vpn);
    const std::uint32_t bits = held ? *held : 0;
    auto displaced = _cache.insert(vpn, bits);
    if (displaced) {
        _table[displaced->first] = displaced->second;
        _stats.writebacks.inc();
    }
    return _cache.lookup(vpn, /*touch=*/false);
}

VmDirAccess
VmDirectory::fetchAndClear(Vpn vpn, GpuId initiator)
{
    _stats.migrationLookups.inc();
    bool hit = false;
    std::uint32_t *bits = cached(vpn, hit);
    IDYLL_ASSERT(bits, "VM-Cache allocation failed");

    VmDirAccess access;
    access.bitsMask = *bits;
    access.cacheHit = hit;
    access.latency = _cfg.lookupLatency +
                     (hit ? 0 : _cfg.vmTableAccessLatency);

    // All access bits except the initiating GPU's are cleared.
    *bits = (*bits & (1u << slotOf(initiator)));
    return access;
}

VmDirAccess
VmDirectory::setBit(Vpn vpn, GpuId gpu)
{
    bool hit = false;
    std::uint32_t *bits = cached(vpn, hit);
    IDYLL_ASSERT(bits, "VM-Cache allocation failed");
    *bits |= (1u << slotOf(gpu));
    _stats.bitSets.inc();

    VmDirAccess access;
    access.bitsMask = *bits;
    access.cacheHit = hit;
    access.latency = _cfg.lookupLatency +
                     (hit ? 0 : _cfg.vmTableAccessLatency);
    return access;
}

std::vector<GpuId>
VmDirectory::expand(std::uint32_t bitsMask) const
{
    std::vector<GpuId> out;
    for (GpuId gpu = 0; gpu < _numGpus; ++gpu)
        if (bitsMask & (1u << slotOf(gpu)))
            out.push_back(gpu);
    return out;
}

std::size_t
VmDirectory::scrubGpu(GpuId deadGpu, std::uint64_t deadMask)
{
    const std::uint32_t slot = slotOf(deadGpu);
    for (GpuId gpu = 0; gpu < _numGpus; ++gpu) {
        if (gpu == deadGpu)
            continue;
        if (gpu < 64 && (deadMask & (1ull << gpu)))
            continue; // also dead; cannot vouch for the slot
        if (slotOf(gpu) == slot) {
            _stats.scrubAliased.inc();
            return 0; // an alive GPU aliases; the bits may be theirs
        }
    }

    const std::uint32_t bit = 1u << slot;
    std::size_t cleared = 0;

    // VM-Cache lines first (they shadow the table), without touching
    // LRU recency — a scrub is maintenance, not a reference.
    std::vector<Vpn> hot;
    _cache.forEach([&hot, bit](Vpn vpn, std::uint32_t bits) {
        if (bits & bit)
            hot.push_back(vpn);
    });
    for (Vpn vpn : hot) {
        if (std::uint32_t *bits = _cache.lookup(vpn, /*touch=*/false)) {
            *bits &= ~bit;
            ++cleared;
        }
    }

    // Then the backing VM-Table entries not resident in the cache.
    _table.forEach([&](Vpn vpn, std::uint32_t &bits) {
        if ((bits & bit) && !_cache.peek(vpn)) {
            bits &= ~bit;
            ++cleared;
        }
    });

    _stats.scrubbedBits.inc(cleared);
    return cleared;
}

std::uint64_t
VmDirectory::cacheBytes() const
{
    return (41ull + kVmTableSlots) * _cfg.entries / 8;
}

} // namespace idyll
