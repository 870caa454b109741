/**
 * @file
 * Compute Unit model.
 *
 * A CU runs a configurable number of warp contexts over one shared
 * work stream. Each context loops { compute for N cycles; issue the
 * memory access; wait for completion }, so memory latency is hidden
 * across contexts exactly as warp scheduling hides it on real GPUs —
 * until the stream is memory-intensive enough that every context is
 * stalled, which is when translation latency shows up end to end.
 */

#ifndef IDYLL_GPU_COMPUTE_UNIT_HH
#define IDYLL_GPU_COMPUTE_UNIT_HH

#include <cstdint>
#include <memory>

#include "gpu/stream.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace idyll
{

class Gpu;

/** One CU: warp contexts draining a shared stream. */
class ComputeUnit
{
  public:
    /**
     * @param eq    event queue.
     * @param gpu   owning GPU (issues the memory accesses).
     * @param index CU index within the GPU.
     * @param warps concurrent warp contexts.
     */
    ComputeUnit(EventQueue &eq, Gpu &gpu, std::uint32_t index,
                std::uint32_t warps);

    /**
     * Begin execution. The owning GPU's noteCuDone() runs once every
     * warp context has drained @p stream.
     */
    void start(std::unique_ptr<CuStream> stream);

    /** Resume a warp context (its access completed): issue its next
     *  work item, or retire it when the stream is empty. */
    void step();

  private:
    EventQueue &_eq;
    Gpu &_gpu;
    std::uint32_t _index;
    std::uint32_t _warps;
    std::uint32_t _doneWarps = 0;
    std::unique_ptr<CuStream> _stream;
};

} // namespace idyll

#endif // IDYLL_GPU_COMPUTE_UNIT_HH
