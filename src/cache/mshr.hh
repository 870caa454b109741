/**
 * @file
 * Miss Status Holding Register file.
 *
 * Tracks outstanding misses keyed by (here) virtual page number, so
 * that secondary misses to the same page merge into the primary miss
 * instead of issuing duplicate page walks. Payloads are the waiting
 * requests, replayed when the miss resolves.
 *
 * Each entry keeps its first MshrWaiters::kInline waiters inline, so
 * a miss that few requests merge into allocates nothing on the heap.
 */

#ifndef IDYLL_CACHE_MSHR_HH
#define IDYLL_CACHE_MSHR_HH

#include <array>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/flat_vpn_map.hh"
#include "sim/logging.hh"

namespace idyll
{

/**
 * The waiters of one MSHR entry, in arrival order. Up to kInline are
 * stored inline; the next one moves them all to a heap vector, so the
 * waiters are always one contiguous run.
 */
template <typename Payload>
class MshrWaiters
{
  public:
    static constexpr std::size_t kInline = 4;

    void
    push_back(Payload p)
    {
        if (_size < kInline) {
            _inline[_size++] = std::move(p);
            return;
        }
        if (_size == kInline) {
            _spill.reserve(2 * kInline);
            for (Payload &q : _inline)
                _spill.push_back(std::move(q));
        }
        _spill.push_back(std::move(p));
        ++_size;
    }

    std::size_t size() const { return _size; }

    const Payload *
    begin() const
    {
        return _size > kInline ? _spill.data() : _inline.data();
    }

    const Payload *end() const { return begin() + _size; }

    const Payload &operator[](std::size_t i) const { return begin()[i]; }

  private:
    std::array<Payload, kInline> _inline{};
    std::vector<Payload> _spill;
    std::size_t _size = 0;
};

/**
 * MSHR file mapping Key -> list of waiting payloads.
 *
 * Like the hardware, the file is a fixed set of entries: each entry's
 * waiter list stays in place from allocate() to release(), and a
 * FlatVpnMap of small entry numbers finds the live ones.
 *
 * @tparam Key     miss identifier (e.g., Vpn): an unsigned integer.
 * @tparam Payload record kept per waiting request.
 */
template <typename Key, typename Payload>
class MshrFile
{
    static_assert(std::is_unsigned_v<Key>, "MSHR keys are page numbers");

  public:
    using Waiters = MshrWaiters<Payload>;

    explicit MshrFile(std::uint32_t entries) : _lists(entries)
    {
        IDYLL_ASSERT(entries > 0, "MSHR file needs at least one entry");
        freeAll();
    }

    /** True if a primary miss for @p key is already outstanding. */
    bool contains(Key key) const { return _index.contains(key); }

    /** True if no new primary miss can be allocated. */
    bool full() const { return _free.empty(); }

    /** Number of live primary entries. */
    std::size_t size() const { return _index.size(); }

    /**
     * Record a miss. If @p key already has a primary entry the payload
     * merges as a secondary; otherwise a new entry is allocated.
     * @return true if this was the primary (caller must start the
     *         fill), false if it merged.
     */
    bool
    allocate(Key key, Payload payload)
    {
        if (const std::uint32_t *entry = _index.find(key)) {
            _lists[*entry].push_back(std::move(payload));
            return false;
        }
        IDYLL_ASSERT(!full(), "MSHR overflow; caller must check full()");
        const std::uint32_t entry = _free.back();
        _free.pop_back();
        _index.insert(key, entry);
        _lists[entry].push_back(std::move(payload));
        return true;
    }

    /**
     * Resolve a miss: removes the entry and returns every waiter
     * (primary first) for replay.
     */
    Waiters
    release(Key key)
    {
        const std::uint32_t *found = _index.find(key);
        IDYLL_ASSERT(found, "releasing unknown MSHR entry");
        const std::uint32_t entry = *found;
        _index.erase(key);
        Waiters waiters = std::exchange(_lists[entry], Waiters{});
        _free.push_back(entry);
        return waiters;
    }

    /** Waiters currently attached to @p key (0 if none). */
    std::size_t
    waiters(Key key) const
    {
        const Waiters *w = peekWaiters(key);
        return w ? w->size() : 0;
    }

    /** Inspect the waiters without releasing them. */
    const Waiters *
    peekWaiters(Key key) const
    {
        const std::uint32_t *entry = _index.find(key);
        return entry ? &_lists[*entry] : nullptr;
    }

    /**
     * Drop every entry and its waiters (hot-unplug teardown: the
     * waiting requests die with the device).
     */
    void
    clear()
    {
        _index.clear();
        for (Waiters &w : _lists)
            w = Waiters{};
        freeAll();
    }

  private:
    /** Mark every entry unused; entry 0 is handed out first. */
    void
    freeAll()
    {
        _free.clear();
        for (auto e = static_cast<std::uint32_t>(_lists.size()); e-- > 0;)
            _free.push_back(e);
    }

    FlatVpnMap<std::uint32_t> _index; ///< key -> its entry in _lists
    std::vector<Waiters> _lists;      ///< one waiter list per entry
    std::vector<std::uint32_t> _free; ///< unused entries
};

} // namespace idyll

#endif // IDYLL_CACHE_MSHR_HH
