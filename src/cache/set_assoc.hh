/**
 * @file
 * Generic set-associative array with true-LRU replacement.
 *
 * Used for every tagged lookup structure in the simulator: L1/L2 TLBs,
 * the per-level MMU caches, and the VM-Cache. Keys are hashed to a
 * set; within a set, entries are ordered by last-touch time.
 *
 * An optional ReusePredictor turns the plain LRU policy into a
 * dead-entry-aware one: predicted-dead insertions land at the LRU
 * position (LIP) instead of the MRU position, and every capacity
 * eviction trains the predictor with whether the victim was ever
 * re-referenced. The policy is a pure function of the key stream, so
 * enabling it keeps serial and sharded runs bit-identical.
 */

#ifndef IDYLL_CACHE_SET_ASSOC_HH
#define IDYLL_CACHE_SET_ASSOC_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cache/reuse_predictor.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace idyll
{

/**
 * Set-associative array mapping Key -> Value.
 *
 * @tparam Key   integral or hashable-by-mix64 key type (uint64 domain).
 * @tparam Value payload stored alongside the tag.
 */
template <typename Key, typename Value>
class SetAssocArray
{
  public:
    /**
     * @param entries total entry count (must be a multiple of ways).
     * @param ways    associativity; ways == entries gives full assoc.
     */
    SetAssocArray(std::uint32_t entries, std::uint32_t ways)
        : _ways(ways), _sets(ways ? entries / ways : 0), _keys(entries),
          _meta(entries), _lastUse(entries), _values(entries)
    {
        IDYLL_ASSERT(ways > 0 && entries > 0, "empty cache geometry");
        IDYLL_ASSERT(entries % ways == 0,
                     "entries (", entries, ") not a multiple of ways (",
                     ways, ")");
        // Every default geometry has a power-of-two set count, so the
        // hot set-selection divide reduces to a mask. h % 2^k is
        // exactly h & (2^k - 1): simulated placement is unchanged.
        if (_sets > 0 && (_sets & (_sets - 1)) == 0)
            _setMask = _sets - 1;
    }

    /** Total capacity in entries. */
    std::uint32_t capacity() const { return _ways * _sets; }

    /** Associativity. */
    std::uint32_t ways() const { return _ways; }

    /** Number of sets. */
    std::uint32_t sets() const { return _sets; }

    /** Number of currently valid entries. */
    std::uint32_t occupancy() const { return _valid; }

    /**
     * Enable dead-entry-aware replacement. The predictor is borrowed
     * (the owner keeps it alive past the array) and shared training
     * across arrays is legal — the MMU-cache hierarchy feeds one
     * predictor from every level. nullptr reverts to plain LRU.
     */
    void attachReusePredictor(ReusePredictor *pred) { _pred = pred; }

    /** Insertions demoted to the LRU position by a dead prediction. */
    const Counter &deadInsertions() const { return _deadInserts; }

    /** Evictions whose victim was never re-referenced. */
    const Counter &deadEvictions() const { return _deadEvictions; }

    /**
     * Find an entry.
     * @param key   lookup key.
     * @param touch update LRU recency on hit (default true).
     * @return pointer to the stored value, or nullptr on miss.
     */
    Value *
    lookup(Key key, bool touch = true)
    {
        const std::size_t i = find(key);
        if (i == kNone)
            return nullptr;
        if (touch) {
            _lastUse[i] = ++_clock;
            Meta &m = _meta[i];
            if (_pred && m.deadHint && !m.reused)
                _pred->trainHitOnDeadHint(static_cast<std::uint64_t>(key));
            m.reused = true;
        }
        return &_values[i];
    }

    /** Const lookup without recency update. */
    const Value *
    peek(Key key) const
    {
        const std::size_t i = find(key);
        return i == kNone ? nullptr : &_values[i];
    }

    /**
     * Insert or overwrite an entry; evicts LRU way if the set is full.
     * @param evictedReused set to whether the displaced entry was ever
     *        re-referenced (untouched when nothing was displaced).
     * @return the displaced (key, value) pair if a valid entry was
     *         evicted to make room.
     */
    std::optional<std::pair<Key, Value>>
    insert(Key key, Value value, bool *evictedReused = nullptr)
    {
        const std::uint32_t set = setOf(key);
        if (const std::size_t i = find(set, key); i != kNone) {
            _values[i] = std::move(value);
            _lastUse[i] = ++_clock;
            _meta[i].reused = true;
            return std::nullopt;
        }
        const std::size_t victim = victimOf(set);
        Meta &m = _meta[victim];
        std::optional<std::pair<Key, Value>> displaced;
        if (m.valid) {
            if (_pred) {
                _pred->trainEviction(
                    static_cast<std::uint64_t>(_keys[victim]), m.reused);
            }
            if (!m.reused)
                _deadEvictions.inc();
            if (evictedReused)
                *evictedReused = m.reused;
            displaced.emplace(_keys[victim], std::move(_values[victim]));
        } else {
            ++_valid;
        }
        m.valid = true;
        m.reused = false;
        m.deadHint =
            _pred && _pred->predictDead(static_cast<std::uint64_t>(key));
        _keys[victim] = key;
        _values[victim] = std::move(value);
        if (m.deadHint) {
            // LIP: a predicted-dead entry enters at the LRU position,
            // so it is the set's next victim unless it proves itself
            // with a hit. Ties between dead insertions are broken by
            // way order — deterministic.
            _lastUse[victim] = 0;
            _deadInserts.inc();
        } else {
            _lastUse[victim] = ++_clock;
        }
        return displaced;
    }

    /** Remove an entry if present. @return true if it existed. */
    bool
    erase(Key key)
    {
        const std::size_t i = find(key);
        if (i == kNone)
            return false;
        _meta[i].valid = false;
        --_valid;
        return true;
    }

    /** Invalidate everything (TLB shootdown helper). */
    void
    flushAll()
    {
        for (Meta &m : _meta)
            m.valid = false;
        _valid = 0;
    }

    /**
     * Invalidate all entries whose key satisfies @p pred.
     * @return number of entries removed.
     */
    template <typename Pred>
    std::uint32_t
    flushIf(Pred pred)
    {
        std::uint32_t removed = 0;
        for (std::size_t i = 0; i < _meta.size(); ++i) {
            if (_meta[i].valid && pred(_keys[i])) {
                _meta[i].valid = false;
                --_valid;
                ++removed;
            }
        }
        return removed;
    }

    /** Visit every valid (key, value) pair. */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (std::size_t i = 0; i < _meta.size(); ++i)
            if (_meta[i].valid)
                fn(_keys[i], _values[i]);
    }

  private:
    /**
     * Per-line state other than the tag, value and recency. Lines are
     * stored as parallel arrays so a set's tag scan reads only the
     * tags (a 32-way set is four cache lines, not twenty).
     */
    struct Meta
    {
        bool valid = false;
        bool reused = false;   ///< re-referenced since insertion
        bool deadHint = false; ///< inserted under a dead prediction
    };

    static constexpr std::size_t kNone = ~std::size_t{0};

    std::uint32_t
    setOf(Key key) const
    {
        if (_sets == 1)
            return 0;
        const std::uint64_t hash = mix64(static_cast<std::uint64_t>(key));
        if (_setMask)
            return static_cast<std::uint32_t>(hash & _setMask);
        return static_cast<std::uint32_t>(hash % _sets);
    }

    /**
     * Replacement victim in @p set: the first invalid way, else the
     * least recently used way (the first of equals). The recency
     * comparison is a select, not a branch: which way is older is a
     * coin flip the branch predictor cannot learn.
     */
    std::size_t
    victimOf(std::uint32_t set) const
    {
        const std::size_t base = set * std::size_t{_ways};
        std::size_t victim = base;
        std::uint64_t oldest = ~std::uint64_t{0};
        for (std::size_t i = base; i < base + _ways; ++i) {
            if (!_meta[i].valid)
                return i;
            const bool older = _lastUse[i] < oldest;
            oldest = older ? _lastUse[i] : oldest;
            victim = older ? i : victim;
        }
        return victim;
    }

    /** Line index of the valid line holding @p key, or kNone. */
    std::size_t find(Key key) const { return find(setOf(key), key); }

    std::size_t
    find(std::uint32_t set, Key key) const
    {
        const std::size_t base = set * std::size_t{_ways};
        const Key *keys = _keys.data() + base;
        for (std::uint32_t w = 0; w < _ways; ++w) {
            // A stale tag may linger in an invalid way; check validity
            // only on a tag match.
            if (keys[w] == key && _meta[base + w].valid)
                return base + w;
        }
        return kNone;
    }

    std::uint32_t _ways;
    std::uint32_t _sets;
    /** _sets - 1 when _sets is a power of two, else 0 (modulo path). */
    std::uint32_t _setMask = 0;
    std::uint32_t _valid = 0;
    std::uint64_t _clock = 0;
    std::vector<Key> _keys;
    std::vector<Meta> _meta;
    std::vector<std::uint64_t> _lastUse;
    std::vector<Value> _values;
    ReusePredictor *_pred = nullptr;
    Counter _deadInserts;
    Counter _deadEvictions;
};

} // namespace idyll

#endif // IDYLL_CACHE_SET_ASSOC_HH
