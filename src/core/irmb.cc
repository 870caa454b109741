#include "core/irmb.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace idyll
{

Irmb::Irmb(const IrmbConfig &cfg, const AddrLayout &layout)
    : _cfg(cfg), _layout(layout), _entries(cfg.bases)
{
    IDYLL_ASSERT(cfg.bases > 0 && cfg.offsetsPerBase > 0,
                 "IRMB geometry must be nonzero");
    for (MergedEntry &entry : _entries)
        entry.offsets.reserve(cfg.offsetsPerBase);
    _baseIndex.reserve(cfg.bases);
}

Irmb::MergedEntry *
Irmb::findBase(std::uint64_t base)
{
    return const_cast<MergedEntry *>(
        static_cast<const Irmb *>(this)->findBase(base));
}

const Irmb::MergedEntry *
Irmb::findBase(std::uint64_t base) const
{
    auto it = _baseIndex.find(base);
    if (it == _baseIndex.end())
        return nullptr;
    const MergedEntry &entry = _entries[it->second];
    IDYLL_ASSERT(entry.valid && entry.base == base,
                 "stale IRMB base index");
    return &entry;
}

Irmb::MergedEntry *
Irmb::lruEntry()
{
    MergedEntry *lru = nullptr;
    for (MergedEntry &entry : _entries) {
        if (!entry.valid)
            continue;
        if (!lru || entry.lastUse < lru->lastUse)
            lru = &entry;
    }
    return lru;
}

Irmb::Batch
Irmb::flushEntry(MergedEntry &entry)
{
    Batch batch;
    batch.reserve(entry.offsets.size());
    for (std::uint32_t offset : entry.offsets)
        batch.push_back(_layout.irmbVpn(entry.base, offset));
    _stats.writtenBack.inc(batch.size());
    entry.offsets.clear();
    return batch;
}

std::optional<Irmb::Batch>
Irmb::insert(Vpn vpn)
{
    const std::uint64_t base = _layout.irmbBase(vpn);
    const std::uint32_t offset = _layout.irmbOffset(vpn);
    _stats.inserts.inc();

    if (MergedEntry *entry = findBase(base)) {
        entry->lastUse = ++_clock;
        if (std::find(entry->offsets.begin(), entry->offsets.end(),
                      offset) != entry->offsets.end()) {
            _stats.duplicates.inc();
            IDYLL_TRACE(_tracer, IrmbDup, _gpu, vpn);
            return std::nullopt;
        }
        _stats.merges.inc();
        IDYLL_TRACE(_tracer, IrmbMerge, _gpu, vpn);
        if (entry->offsets.size() >= _cfg.offsetsPerBase) {
            // Offset set full: flush the whole entry, then reuse it.
            _stats.offsetFlushes.inc();
            Batch batch = flushEntry(*entry);
            IDYLL_TRACE(_tracer, IrmbFlush, _gpu, vpn, batch.size());
            entry->offsets.push_back(offset);
            return batch;
        }
        entry->offsets.push_back(offset);
        return std::nullopt;
    }

    // Need a fresh merged entry.
    for (std::size_t i = 0; i < _entries.size(); ++i) {
        MergedEntry &entry = _entries[i];
        if (!entry.valid) {
            entry.valid = true;
            entry.base = base;
            entry.offsets.clear();
            entry.offsets.push_back(offset);
            entry.lastUse = ++_clock;
            _baseIndex.emplace(base, static_cast<std::uint32_t>(i));
            IDYLL_TRACE(_tracer, IrmbInsert, _gpu, vpn);
            return std::nullopt;
        }
    }

    // Base array full: evict the LRU merged entry as a batch.
    MergedEntry *victim = lruEntry();
    IDYLL_ASSERT(victim, "full IRMB with no LRU victim");
    _stats.baseEvictions.inc();
    Batch batch = flushEntry(*victim);
    IDYLL_TRACE(_tracer, IrmbEvict, _gpu, vpn, batch.size());
    _baseIndex.erase(victim->base);
    _baseIndex.emplace(
        base, static_cast<std::uint32_t>(victim - _entries.data()));
    victim->base = base;
    victim->offsets.push_back(offset);
    victim->lastUse = ++_clock;
    return batch;
}

bool
Irmb::lookup(Vpn vpn)
{
    if (contains(vpn)) {
        _stats.lookupHits.inc();
        IDYLL_TRACE(_tracer, IrmbHit, _gpu, vpn);
        return true;
    }
    _stats.lookupMisses.inc();
    return false;
}

bool
Irmb::contains(Vpn vpn) const
{
    const std::uint64_t base = _layout.irmbBase(vpn);
    const std::uint32_t offset = _layout.irmbOffset(vpn);
    if (const MergedEntry *entry = findBase(base)) {
        return std::find(entry->offsets.begin(), entry->offsets.end(),
                         offset) != entry->offsets.end();
    }
    return false;
}

bool
Irmb::removeForNewMapping(Vpn vpn)
{
    const std::uint64_t base = _layout.irmbBase(vpn);
    const std::uint32_t offset = _layout.irmbOffset(vpn);
    if (MergedEntry *entry = findBase(base)) {
        auto it = std::find(entry->offsets.begin(), entry->offsets.end(),
                            offset);
        if (it != entry->offsets.end()) {
            entry->offsets.erase(it);
            _stats.elided.inc();
            IDYLL_TRACE(_tracer, IrmbElide, _gpu, vpn);
            if (entry->offsets.empty()) {
                entry->valid = false;
                _baseIndex.erase(base);
            }
            return true;
        }
    }
    return false;
}

std::optional<Irmb::Batch>
Irmb::drainLru()
{
    MergedEntry *lru = lruEntry();
    if (!lru)
        return std::nullopt;
    _stats.idleWritebacks.inc();
    Batch batch = flushEntry(*lru);
    IDYLL_TRACE(_tracer, IrmbDrain, _gpu, batch.empty() ? 0 : batch.front(),
                batch.size());
    lru->valid = false;
    _baseIndex.erase(lru->base);
    return batch;
}

std::size_t
Irmb::scrubAll()
{
    std::size_t discarded = 0;
    for (MergedEntry &entry : _entries) {
        if (!entry.valid)
            continue;
        discarded += entry.offsets.size();
        entry.valid = false;
        entry.offsets.clear();
    }
    _baseIndex.clear();
    _stats.scrubbed.inc(discarded);
    return discarded;
}

std::size_t
Irmb::pendingVpns() const
{
    std::size_t total = 0;
    for (const MergedEntry &entry : _entries)
        if (entry.valid)
            total += entry.offsets.size();
    return total;
}

std::size_t
Irmb::liveEntries() const
{
    std::size_t live = 0;
    for (const MergedEntry &entry : _entries)
        live += entry.valid ? 1 : 0;
    return live;
}

} // namespace idyll
