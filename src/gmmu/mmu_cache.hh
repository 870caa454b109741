/**
 * @file
 * Split per-level MMU-cache hierarchy.
 *
 * Replaces the old single shared PageWalkCache with one PSCL-style
 * cache per non-leaf page-table level (the ChampSim PSCL5-PSCL2
 * shape): level 1 caches leaf-node pointers, level numLevels-1 caches
 * pointers one step below the root. A walk starts at the deepest
 * level with a *valid* cached pointer — a hit at node level L costs L
 * accesses instead of numLevels.
 *
 * "Valid" is the fix for the stale-hit bug: the old cache happily
 * returned a pointer below the present path (e.g. a leaf-node pointer
 * cached before the node's mapping was torn down), which made
 * `accesses = start - stop + 1` underflow to zero and the walk free.
 * Here a probe is clamped to the present path: hits below
 * @p stopLevel are dropped (and erased — the hardware analogue of a
 * paging-structure-cache flush on INVLPG) so a walk always performs
 * at least one memory access.
 *
 * Each level is individually sized/associative (GmmuConfig::mmuCache)
 * with its own hit/miss/fill/occupancy metrics and trace events, and
 * optionally uses dead-entry-aware eviction driven by one shared
 * ReusePredictor.
 */

#ifndef IDYLL_GMMU_MMU_CACHE_HH
#define IDYLL_GMMU_MMU_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cache/reuse_predictor.hh"
#include "cache/set_assoc.hh"
#include "mem/addr.hh"
#include "sim/config.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace idyll
{

/** The split per-level MMU caches of one GMMU. */
class MmuCacheHierarchy
{
  public:
    /**
     * @param cfg    GMMU geometry (per-level entries/ways, dead-evict).
     * @param layout address layout (level geometry).
     */
    MmuCacheHierarchy(const GmmuConfig &cfg, const AddrLayout &layout)
        : _layout(layout)
    {
        const std::uint32_t levels = layout.numLevels - 1;
        _levels.reserve(levels);
        for (std::uint32_t level = 1; level <= levels; ++level) {
            // Levels past the configured vector reuse its last entry
            // (the 2 MB layout has one level fewer than the 4 KB one).
            const MmuCacheLevelConfig &geo =
                cfg.mmuCache[std::min<std::size_t>(
                    level - 1, cfg.mmuCache.size() - 1)];
            _levels.emplace_back(geo.entries,
                                 std::min(geo.entries, geo.ways));
            _stats.emplace_back(level);
        }
        if (cfg.deadEntryEviction) {
            _pred = std::make_unique<ReusePredictor>();
            for (auto &array : _levels)
                array.attachReusePredictor(_pred.get());
        }
    }

    /** Per-level metrics; the owning GMMU attaches them to its group. */
    struct LevelStats : MetricsGroup
    {
        explicit LevelStats(std::uint32_t level)
            : MetricsGroup("mmuCacheL" + std::to_string(level))
        {
        }

        /// probes answered at this level
        Counter hits{*this, "hits"};
        /// probes that missed this level
        Counter misses{*this, "misses"};
        Counter fills{*this, "fills"};
        /// hits below the present path, erased
        Counter staleDrops{*this, "staleDrops"};
    };

    /**
     * Deepest node level with a valid cached pointer for @p vpn.
     *
     * Valid means at or above the present path: entries below
     * @p stopLevel (the deepest node level that actually exists) are
     * stale — the path under them was torn down — so they are erased
     * and skipped instead of shortening the walk below its floor.
     *
     * @return level in [stopLevel, numLevels-1], or 0 on a miss.
     */
    std::uint32_t
    deepestValidHit(Vpn vpn, std::uint32_t stopLevel)
    {
        for (std::uint32_t level = 1; level < _layout.numLevels;
             ++level) {
            LevelStats &stats = _stats[level - 1];
            SetAssocArray<std::uint64_t, std::uint8_t> &array =
                _levels[level - 1];
            const std::uint64_t key = keyOf(level, vpn);
            if (level < stopLevel) {
                // A hit here would start the walk below the present
                // path — the stale-PWC bug. Scrub without probing
                // cost: the walker discovers the truncation anyway.
                if (array.erase(key))
                    stats.staleDrops.inc();
                continue;
            }
            if (array.lookup(key)) {
                stats.hits.inc();
                _probeHits.inc();
                IDYLL_TRACE(_tracer, MmuCacheHit, _gpu, vpn, level);
                return level;
            }
            stats.misses.inc();
        }
        _probeMisses.inc();
        IDYLL_TRACE(_tracer, MmuCacheMiss, _gpu, vpn);
        return 0;
    }

    /** Install pointers for node levels [fromLevel, numLevels-1]. */
    void
    fill(Vpn vpn, std::uint32_t fromLevel)
    {
        for (std::uint32_t level = std::max(fromLevel, 1u);
             level < _layout.numLevels; ++level) {
            _levels[level - 1].insert(keyOf(level, vpn), 1u);
            _stats[level - 1].fills.inc();
        }
    }

    /**
     * Drop every cached pointer covering @p vpn, at every level — the
     * INVLPG analogue. Wired into the GMMU invalidate/update walks
     * and into local page-table teardown (device-loss scrub included).
     */
    void
    invalidateVpn(Vpn vpn)
    {
        for (std::uint32_t level = 1; level < _layout.numLevels;
             ++level) {
            if (_levels[level - 1].erase(keyOf(level, vpn)))
                _stats[level - 1].staleDrops.inc();
        }
    }

    /** Drop everything (hot-unplug teardown). */
    void
    flushAll()
    {
        for (auto &array : _levels)
            array.flushAll();
    }

    /** Non-leaf levels modeled (numLevels - 1). */
    std::uint32_t
    numCachedLevels() const
    {
        return static_cast<std::uint32_t>(_levels.size());
    }

    const LevelStats &levelStats(std::uint32_t level) const
    {
        return _stats[level - 1];
    }

    std::uint32_t occupancy(std::uint32_t level) const
    {
        return _levels[level - 1].occupancy();
    }

    std::uint32_t capacity(std::uint32_t level) const
    {
        return _levels[level - 1].capacity();
    }

    /** Evictions at @p level whose victim was never re-referenced. */
    const Counter &deadEvictions(std::uint32_t level) const
    {
        return _levels[level - 1].deadEvictions();
    }

    /** Probes answered at any level (the old aggregate "PWC hits"). */
    const Counter &hits() const { return _probeHits; }

    /** Probes that missed every level. */
    const Counter &misses() const { return _probeMisses; }

    /** Stale entries dropped across all levels. */
    std::uint64_t
    staleDrops() const
    {
        std::uint64_t total = 0;
        for (const LevelStats &stats : _stats)
            total += stats.staleDrops.value();
        return total;
    }

    /** nullptr unless dead-entry eviction is enabled. */
    ReusePredictor *predictor() { return _pred.get(); }

    /** Attach the owning GPU's tracer for hit/miss/stale events. */
    void
    setTracer(Tracer *tracer, GpuId gpu)
    {
        _tracer = tracer;
        _gpu = gpu;
    }

  private:
    std::uint64_t
    keyOf(std::uint32_t level, Vpn vpn) const
    {
        // Node at level L covers the VPN prefix above L*9 bits. The
        // level tag keeps the reuse predictor's key space per-level
        // even though the arrays are already split.
        const std::uint64_t prefix = vpn >> (kLevelBits * level);
        return (static_cast<std::uint64_t>(level) << 58) | prefix;
    }

    AddrLayout _layout;
    std::vector<SetAssocArray<std::uint64_t, std::uint8_t>> _levels;
    std::deque<LevelStats> _stats; ///< a deque: groups never move
    std::unique_ptr<ReusePredictor> _pred;
    Counter _probeHits;
    Counter _probeMisses;
    Tracer *_tracer = nullptr;
    GpuId _gpu = 0;
};

} // namespace idyll

#endif // IDYLL_GMMU_MMU_CACHE_HH
