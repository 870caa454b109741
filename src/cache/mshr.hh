/**
 * @file
 * Miss Status Holding Register file.
 *
 * Tracks outstanding misses keyed by (here) virtual page number, so
 * that secondary misses to the same page merge into the primary miss
 * instead of issuing duplicate page walks. Payloads are the waiting
 * requests, replayed when the miss resolves.
 */

#ifndef IDYLL_CACHE_MSHR_HH
#define IDYLL_CACHE_MSHR_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/logging.hh"

namespace idyll
{

/**
 * MSHR file mapping Key -> list of waiting payloads.
 *
 * @tparam Key     miss identifier (e.g., Vpn).
 * @tparam Payload record kept per waiting request.
 */
template <typename Key, typename Payload>
class MshrFile
{
  public:
    explicit MshrFile(std::uint32_t entries) : _entries(entries)
    {
        IDYLL_ASSERT(entries > 0, "MSHR file needs at least one entry");
    }

    /** True if a primary miss for @p key is already outstanding. */
    bool contains(Key key) const { return _table.count(key) != 0; }

    /** True if no new primary miss can be allocated. */
    bool full() const { return _table.size() >= _entries; }

    /** Number of live primary entries. */
    std::size_t size() const { return _table.size(); }

    /**
     * Record a miss. If @p key already has a primary entry the payload
     * merges as a secondary; otherwise a new entry is allocated.
     * @return true if this was the primary (caller must start the
     *         fill), false if it merged.
     */
    bool
    allocate(Key key, Payload payload)
    {
        auto it = _table.find(key);
        if (it != _table.end()) {
            it->second.push_back(std::move(payload));
            return false;
        }
        IDYLL_ASSERT(!full(), "MSHR overflow; caller must check full()");
        _table[key].push_back(std::move(payload));
        return true;
    }

    /**
     * Resolve a miss: removes the entry and returns every waiter
     * (primary first) for replay.
     */
    std::vector<Payload>
    release(Key key)
    {
        auto it = _table.find(key);
        IDYLL_ASSERT(it != _table.end(), "releasing unknown MSHR entry");
        std::vector<Payload> waiters = std::move(it->second);
        _table.erase(it);
        return waiters;
    }

    /** Waiters currently attached to @p key (0 if none). */
    std::size_t
    waiters(Key key) const
    {
        auto it = _table.find(key);
        return it == _table.end() ? 0 : it->second.size();
    }

    /** Inspect the waiters without releasing them. */
    const std::vector<Payload> *
    peekWaiters(Key key) const
    {
        auto it = _table.find(key);
        return it == _table.end() ? nullptr : &it->second;
    }

    /**
     * Drop every entry and its waiters (hot-unplug teardown: the
     * waiting requests die with the device).
     */
    void clear() { _table.clear(); }

  private:
    std::uint32_t _entries;
    std::unordered_map<Key, std::vector<Payload>> _table;
};

} // namespace idyll

#endif // IDYLL_CACHE_MSHR_HH
