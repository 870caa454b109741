/**
 * @file
 * Fixed-width pool of host "workers" (page-table-walk / fault-service
 * threads in the UVM driver). Tasks are (cost, continuation) pairs
 * executed FIFO as workers free up.
 */

#ifndef IDYLL_UVM_WORKER_POOL_HH
#define IDYLL_UVM_WORKER_POOL_HH

#include <cstdint>
#include <deque>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/types.hh"

namespace idyll
{

/** FIFO worker pool with deterministic service order. */
class WorkerPool
{
  public:
    WorkerPool(EventQueue &eq, std::uint32_t workers)
        : _eq(eq), _workers(workers)
    {
        IDYLL_ASSERT(workers > 0, "worker pool needs >= 1 worker");
    }

    /**
     * Enqueue a task costing @p cost cycles; @p done runs after, and
     * then the worker picks up the next queued task.
     */
    template <typename F>
    void
    submit(Cycles cost, F &&done)
    {
        _queue.push_back(Task{cost,
                              [this, fn = std::forward<F>(done)]() mutable {
                                  --_busy;
                                  fn();
                                  tryDispatch();
                              },
                              _eq.now()});
        tryDispatch();
    }

    bool idle() const { return _busy == 0 && _queue.empty(); }
    std::size_t queued() const { return _queue.size(); }
    const AvgStat &queueWait() const { return _queueWait; }

  private:
    struct Task
    {
        Cycles cost;
        EventFn done;
        Tick enqueued;
    };

    void
    tryDispatch()
    {
        while (_busy < _workers && !_queue.empty()) {
            Task task = std::move(_queue.front());
            _queue.pop_front();
            ++_busy;
            _queueWait.sample(
                static_cast<double>(_eq.now() - task.enqueued));
            _eq.schedule(task.cost, std::move(task.done));
        }
    }

    EventQueue &_eq;
    std::uint32_t _workers;
    std::uint32_t _busy = 0;
    std::deque<Task> _queue;
    AvgStat _queueWait;
};

} // namespace idyll

#endif // IDYLL_UVM_WORKER_POOL_HH
