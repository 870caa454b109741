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

#include <algorithm>
#include <cstdint>
#include <optional>
#include <type_traits>
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
    static_assert(std::is_unsigned_v<Key>, "keys are unsigned integers");

  public:
    /**
     * @param entries total entry count (must be a multiple of ways).
     * @param ways    associativity; ways == entries gives full assoc.
     */
    SetAssocArray(std::uint32_t entries, std::uint32_t ways)
        : _ways(ways), _sets(ways ? entries / ways : 0),
          _keys(entries, kNoKey), _use(entries, kInvalidUse),
          _values(entries)
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
            const std::uint64_t use = _use[i];
            if (_pred && (use & kDeadHint) && !(use & kReused))
                _pred->trainHitOnDeadHint(static_cast<std::uint64_t>(key));
            _use[i] = nextStamp() | (use & kDeadHint) | kReused;
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
            _use[i] = nextStamp() | (_use[i] & kDeadHint) | kReused;
            return std::nullopt;
        }
        return place(set, key, std::move(value), evictedReused);
    }

    /**
     * insert() for a key the caller knows is absent (an index proved
     * it), skipping the tag scan. Same placement as insert().
     */
    std::optional<std::pair<Key, Value>>
    insertAbsent(Key key, Value value, bool *evictedReused = nullptr)
    {
        return place(setOf(key), key, std::move(value), evictedReused);
    }

    /** Remove an entry if present. @return true if it existed. */
    bool
    erase(Key key)
    {
        const std::size_t i = find(key);
        if (i == kNone)
            return false;
        invalidate(i);
        return true;
    }

    /** Invalidate everything (TLB shootdown helper). */
    void
    flushAll()
    {
        std::fill(_keys.begin(), _keys.end(), kNoKey);
        std::fill(_use.begin(), _use.end(), kInvalidUse);
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
        for (std::size_t i = 0; i < _keys.size(); ++i) {
            if (_keys[i] != kNoKey && pred(_keys[i])) {
                invalidate(i);
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
        for (std::size_t i = 0; i < _keys.size(); ++i)
            if (_keys[i] != kNoKey)
                fn(_keys[i], _values[i]);
    }

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};

    /** Tag of an invalid way; insert() refuses it as a key. */
    static constexpr Key kNoKey = ~Key{0};

    /**
     * One recency word per way: a stamp above two flag bits. The
     * stamps order every way in one array: invalid ways (word 0) sort
     * first, predicted-dead insertions (LIP, stamp 1) next, then valid
     * ways by last touch (the clock starts above both). The flags are
     * the rest of a line's replacement state, so a hit or an eviction
     * reads no other array, and lines are parallel arrays: a set's
     * tag scan reads only tags (a 32-way set is four cache lines) and
     * a victim search only recency words.
     */
    static constexpr std::uint64_t kReused = 1;   ///< touched since fill
    static constexpr std::uint64_t kDeadHint = 2; ///< filled as dead
    static constexpr std::uint32_t kFlagBits = 2;
    static constexpr std::uint64_t kInvalidUse = 0;
    static constexpr std::uint64_t kDeadUse = (1 << kFlagBits) | kDeadHint;

    /** A fresh stamp for a touched or filled way, flags clear. */
    std::uint64_t nextStamp() { return ++_clock << kFlagBits; }

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
     * encoding makes that the first minimum of one array. The
     * comparison is a select, not a branch: which way is older is a
     * coin flip the branch predictor cannot learn.
     */
    std::size_t
    victimOf(std::uint32_t set) const
    {
        const std::size_t base = set * std::size_t{_ways};
        const std::uint64_t *use = _use.data() + base;
        std::size_t victim = 0;
        std::uint64_t oldest = ~std::uint64_t{0};
        for (std::uint32_t w = 0; w < _ways; ++w) {
            if (use[w] == kInvalidUse)
                return base + w;
            const bool older = use[w] < oldest;
            oldest = older ? use[w] : oldest;
            victim = older ? w : victim;
        }
        return base + victim;
    }

    /** Put @p key (absent from @p set) into the set's victim way. */
    std::optional<std::pair<Key, Value>>
    place(std::uint32_t set, Key key, Value value, bool *evictedReused)
    {
        IDYLL_ASSERT(key != kNoKey, "key reserved for invalid ways");
        const std::size_t victim = victimOf(set);
        std::optional<std::pair<Key, Value>> displaced;
        if (_keys[victim] != kNoKey) {
            const bool reused = (_use[victim] & kReused) != 0;
            if (_pred) {
                _pred->trainEviction(
                    static_cast<std::uint64_t>(_keys[victim]), reused);
            }
            if (!reused)
                _deadEvictions.inc();
            if (evictedReused)
                *evictedReused = reused;
            displaced.emplace(_keys[victim], std::move(_values[victim]));
        } else {
            ++_valid;
        }
        _keys[victim] = key;
        _values[victim] = std::move(value);
        if (_pred && _pred->predictDead(static_cast<std::uint64_t>(key))) {
            // LIP: a predicted-dead entry enters at the LRU position,
            // so it is the set's next victim unless it proves itself
            // with a hit. Ties between dead insertions are broken by
            // way order — deterministic.
            _use[victim] = kDeadUse;
            _deadInserts.inc();
        } else {
            _use[victim] = nextStamp();
        }
        return displaced;
    }

    void
    invalidate(std::size_t i)
    {
        _keys[i] = kNoKey;
        _use[i] = kInvalidUse;
        --_valid;
    }

    /** Line index of the valid line holding @p key, or kNone. */
    std::size_t find(Key key) const { return find(setOf(key), key); }

    std::size_t
    find(std::uint32_t set, Key key) const
    {
        // Invalid ways hold kNoKey, which no lookup asks for, so the
        // scan reads the tags alone.
        const std::size_t base = set * std::size_t{_ways};
        const Key *keys = _keys.data() + base;
        for (std::uint32_t w = 0; w < _ways; ++w)
            if (keys[w] == key)
                return base + w;
        return kNone;
    }

    std::uint32_t _ways;
    std::uint32_t _sets;
    /** _sets - 1 when _sets is a power of two, else 0 (modulo path). */
    std::uint32_t _setMask = 0;
    std::uint32_t _valid = 0;
    /** Last stamp handed out; starts above the dead stamp (1). */
    std::uint64_t _clock = 1;
    std::vector<Key> _keys;
    std::vector<std::uint64_t> _use;
    std::vector<Value> _values;
    ReusePredictor *_pred = nullptr;
    Counter _deadInserts;
    Counter _deadEvictions;
};

} // namespace idyll

#endif // IDYLL_CACHE_SET_ASSOC_HH
