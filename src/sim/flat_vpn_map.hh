/**
 * @file
 * FlatVpnMap: the one hash table for per-page state keyed by a VPN (or
 * any other 64-bit page-derived key).
 *
 * Open addressing with linear probing in Robin Hood order, and
 * backward-shift deletion (no tombstones). A slot is the key followed
 * by its value, so a lookup that hits its home slot reads one cache
 * line; with a 24-byte value a slot is 32 bytes and two slots share a
 * line. The home slot is a golden-ratio multiply of the key (Fibonacci
 * hashing) scaled to the table size, which spreads the contiguous VPN
 * ranges workloads touch evenly over the table.
 *
 * Robin Hood order: along a probe run, keys sit in ascending order of
 * home slot (an insert takes the place of the first key that is
 * nearer its home than the new key is to its own). A lookup therefore
 * stops at the first key nearer its home than the probe has come, so
 * a lookup of an absent key, which plain linear probing pays for with
 * the whole run (about 32 slots at 7/8 full), costs about as much as
 * a hit. Several users look up absent keys all the time: the L1
 * residency index on every L1 miss, the MSHR file on every L2 miss.
 *
 * Sizing rule (RSS): the table grows by half when an insert would
 * take it past 7/8 full, so it is always between 7/12 and 7/8 full.
 * At 32-byte slots that is 37 to 55 bytes per key, less than a
 * node-based std::unordered_map spends (a 64-byte heap node plus an
 * 8-byte bucket). Growing by half rather than doubling also keeps the
 * old and new arrays that coexist during a rehash small.
 *
 * Rules for users:
 *  - Read paths call find(), which never inserts. operator[] creates a
 *    default value and is for write paths only.
 *  - A pointer or reference into the table is invalidated by any
 *    insert of a new key (it may move slots) and by any erase
 *    (backward shift moves later slots). Re-find after either.
 *  - forEach() visits in slot order: deterministic for a given
 *    sequence of inserts and erases, but callers that must be
 *    independent of table layout sort or sum what they collect. That
 *    order is hash order, so a table filled from another's forEach()
 *    must reserve() room for every key first.
 *  - kEmptyKey (all ones) cannot be stored (inserting it asserts;
 *    looking it up finds nothing); no VPN comes near it.
 */

#ifndef IDYLL_SIM_FLAT_VPN_MAP_HH
#define IDYLL_SIM_FLAT_VPN_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace idyll
{

/** Open-addressing map from a 64-bit page key to @p V. */
template <typename V>
class FlatVpnMap
{
  public:
    using Key = std::uint64_t;

    /** The one key value a table cannot hold: it marks an empty slot. */
    static constexpr Key kEmptyKey = ~Key{0};

    FlatVpnMap() { rehash(kMinSlots); }

    /** Value stored under @p key, or nullptr; never inserts. */
    V *
    find(Key key)
    {
        const std::uint64_t i = indexOf(key);
        return i == kAbsent ? nullptr : &_slots[i].value;
    }

    const V *
    find(Key key) const
    {
        const std::uint64_t i = indexOf(key);
        return i == kAbsent ? nullptr : &_slots[i].value;
    }

    bool contains(Key key) const { return indexOf(key) != kAbsent; }

    /** Start loading @p key's home slot ahead of a lookup. */
    void
    prefetch(Key key) const
    {
        __builtin_prefetch(&_slots[home(key)]);
    }

    /** Value under @p key, default-constructed first if absent. */
    V &operator[](Key key) { return *insert(key, V{}).first; }

    /**
     * Store @p value under @p key unless the key is present.
     * @return the stored value and whether this call inserted it.
     */
    std::pair<V *, bool>
    insert(Key key, V value)
    {
        IDYLL_ASSERT(key != kEmptyKey, "FlatVpnMap cannot hold its "
                                       "empty-slot key");
        if (const std::uint64_t i = indexOf(key); i != kAbsent)
            return {&_slots[i].value, false};
        if (8 * (_size + 1) > 7 * _slots.size())
            rehash(_slots.size() + _slots.size() / 2);
        ++_size;
        return {place(key, std::move(value)), true};
    }

    /** Remove @p key. @return whether it was present. */
    bool
    erase(Key key)
    {
        std::uint64_t hole = indexOf(key);
        if (hole == kAbsent)
            return false;
        --_size;
        // Shift the rest of the probe run back one slot, up to the
        // first key already in its home (or an empty slot): every key
        // stays reachable and in Robin Hood order, without tombstones.
        for (std::uint64_t i = after(hole);; i = after(i)) {
            Slot &next = _slots[i];
            if (next.key == kEmptyKey || home(next.key) == i)
                break;
            _slots[hole] = std::move(next);
            hole = i;
        }
        _slots[hole].key = kEmptyKey;
        _slots[hole].value = V{};
        return true;
    }

    /**
     * Grow now, if needed, so that @p n keys in all fit without a
     * rehash. Filling a table from another's forEach() needs it: the
     * keys arrive in hash order, and while the table is smaller than
     * their count they pile into one probe run.
     */
    void
    reserve(std::size_t n)
    {
        if (8 * n > 7 * _slots.size())
            rehash(8 * n / 7 + 1);
    }

    /** Remove every key and shrink to the initial size. */
    void
    clear()
    {
        _slots.clear(); // so rehash() has nothing to move
        _size = 0;
        rehash(kMinSlots);
    }

    /** Keys stored. */
    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    /** Slots allocated. */
    std::size_t capacity() const { return _slots.size(); }

    /** Call fn(key, value) for every stored key, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (Slot &s : _slots)
            if (s.key != kEmptyKey)
                fn(s.key, s.value);
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : _slots)
            if (s.key != kEmptyKey)
                fn(s.key, s.value);
    }

  private:
    struct Slot
    {
        Key key = kEmptyKey;
        V value{};
    };

    /** Initial table size; it grows by half past 7/8 full. */
    static constexpr std::uint64_t kMinSlots = 8;

    static constexpr std::uint64_t kAbsent = ~std::uint64_t{0};

    std::uint64_t
    home(Key key) const
    {
        // Fibonacci hashing: a golden-ratio multiply, whose high bits
        // are then scaled to the table size (multiply-shift, no
        // divide).
        const std::uint64_t h = key * 0x9E3779B97F4A7C15ull;
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(h) * _slots.size()) >> 64);
    }

    /** The slot after @p i, wrapping at the end. */
    std::uint64_t
    after(std::uint64_t i) const
    {
        return i + 1 == _slots.size() ? 0 : i + 1;
    }

    /** Probe steps from slot @p from forward to slot @p to. */
    std::uint64_t
    distance(std::uint64_t from, std::uint64_t to) const
    {
        return to >= from ? to - from : to + _slots.size() - from;
    }

    /** Slot holding @p key, or kAbsent. */
    std::uint64_t
    indexOf(Key key) const
    {
        // The empty marker is never stored, though every free slot
        // holds it.
        if (key == kEmptyKey)
            return kAbsent;
        std::uint64_t i = home(key);
        for (std::uint64_t probed = 0;; ++probed, i = after(i)) {
            const Key k = _slots[i].key;
            if (k == key)
                return i;
            // Robin Hood order: @p key would sit before any key that
            // is nearer its home than this probe is to @p key's.
            if (k == kEmptyKey || distance(home(k), i) < probed)
                return kAbsent;
        }
    }

    /**
     * Put absent @p key into the table (which has a free slot), moving
     * later keys of its probe run along. @return its value's slot.
     */
    V *
    place(Key key, V value)
    {
        Slot carry{key, std::move(value)};
        V *placed = nullptr;
        std::uint64_t i = home(key);
        for (std::uint64_t probed = 0;; ++probed, i = after(i)) {
            Slot &s = _slots[i];
            if (s.key == kEmptyKey) {
                s = std::move(carry);
                return placed ? placed : &s.value;
            }
            const std::uint64_t theirs = distance(home(s.key), i);
            if (theirs < probed) {
                // Take the nearer-to-home key's place; carry it on.
                std::swap(s, carry);
                if (!placed)
                    placed = &s.value;
                probed = theirs;
            }
        }
    }

    /** Move every member into a fresh table of @p slots slots. */
    void
    rehash(std::uint64_t slots)
    {
        std::vector<Slot> old(slots);
        old.swap(_slots);
        for (Slot &s : old)
            if (s.key != kEmptyKey)
                place(s.key, std::move(s.value));
    }

    std::vector<Slot> _slots;
    std::size_t _size = 0;
};

} // namespace idyll

#endif // IDYLL_SIM_FLAT_VPN_MAP_HH
