/**
 * @file
 * OrderedLanes: single-writer FIFO lanes drained through one
 * deterministic merge.
 *
 * The sharded observability buffers (DESIGN.md section 11) share one
 * pattern: during a lookahead window every writer appends to its own
 * lane without locks, and at a quiescent point the main thread drains
 * the lanes through a k-way merge ordered by (key, lane index, lane
 * FIFO). Each lane is key-sorted already (a shard dispatches in tick
 * order), so one cursor per lane suffices. The key is a projection
 * of the item, e.g. `&LatOp::execTick`.
 *
 * The merged key must never move backwards, within one drain or
 * across drains. A step backwards is the observable symptom of a
 * lane that missed its rendezvous flush; it is reported to the
 * violation handler (panic by default) and the item still applies.
 *
 * Threading: push() on lane i runs only on lane i's writer, and
 * drainBelow() runs only while no writer is active.
 */

#ifndef IDYLL_SIM_ORDERED_LANES_HH
#define IDYLL_SIM_ORDERED_LANES_HH

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace idyll
{

template <typename T, auto Key>
class OrderedLanes
{
  public:
    using Handler = std::function<void(const std::string &)>;

    explicit OrderedLanes(std::size_t lanes = 0)
        : _lanes(lanes), _cursor(lanes, 0),
          _onViolation([](const std::string &msg) {
              panic("ordered lanes: ", msg);
          })
    {
    }

    std::size_t laneCount() const { return _lanes.size(); }

    /** Replace the order-violation handler (default: panic). */
    void setViolationHandler(Handler handler)
    {
        _onViolation = std::move(handler);
    }

    void push(std::size_t lane, T item)
    {
        _lanes[lane].push_back(std::move(item));
    }

    /**
     * Call @p apply on every queued item whose key is below @p limit,
     * in (key, lane index, lane FIFO) order, then drop the applied
     * prefixes. Items at or above @p limit stay queued in FIFO order.
     * @return the number of items still queued.
     */
    template <typename Apply>
    std::size_t
    drainBelow(Tick limit, Apply &&apply)
    {
        const std::size_t n = _lanes.size();
        for (;;) {
            std::size_t best = n;
            Tick bestKey = 0;
            for (std::size_t i = 0; i < n; ++i) {
                if (_cursor[i] >= _lanes[i].size())
                    continue;
                const Tick k = std::invoke(Key, _lanes[i][_cursor[i]]);
                if (k < limit && (best == n || k < bestKey)) {
                    best = i;
                    bestKey = k;
                }
            }
            if (best == n)
                break;
            if (bestKey < _lastKey)
                reportViolation(bestKey);
            _lastKey = bestKey;
            apply(_lanes[best][_cursor[best]++]);
        }
        std::size_t queued = 0;
        for (std::size_t i = 0; i < n; ++i) {
            auto &lane = _lanes[i];
            lane.erase(lane.begin(),
                       lane.begin() +
                           static_cast<std::ptrdiff_t>(_cursor[i]));
            _cursor[i] = 0;
            queued += lane.size();
        }
        return queued;
    }

  private:
    void
    reportViolation(Tick key) const
    {
        _onViolation("merge order violated: key " + std::to_string(key) +
                     " merged after key " + std::to_string(_lastKey) +
                     " (a lane was not flushed at the rendezvous)");
    }

    std::vector<std::vector<T>> _lanes;
    std::vector<std::size_t> _cursor;
    Tick _lastKey = 0;
    Handler _onViolation;
};

} // namespace idyll

#endif // IDYLL_SIM_ORDERED_LANES_HH
