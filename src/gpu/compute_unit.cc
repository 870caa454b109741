#include "gpu/compute_unit.hh"

#include "gpu/gpu.hh"
#include "sim/logging.hh"

namespace idyll
{

ComputeUnit::ComputeUnit(EventQueue &eq, Gpu &gpu, std::uint32_t index,
                         std::uint32_t warps)
    : _eq(eq), _gpu(gpu), _index(index), _warps(warps)
{
    IDYLL_ASSERT(warps > 0, "CU needs at least one warp context");
}

void
ComputeUnit::start(std::unique_ptr<CuStream> stream)
{
    IDYLL_ASSERT(stream, "CU launched without a stream");
    _stream = std::move(stream);
    // Each warp context independently drains the shared stream; this
    // is what hides memory latency across contexts.
    for (std::uint32_t w = 0; w < _warps; ++w)
        step();
}

void
ComputeUnit::step()
{
    _eq.noteProgress();
    std::optional<WorkItem> item = _stream->next();
    if (!item) {
        if (++_doneWarps == _warps)
            _gpu.noteCuDone();
        return;
    }
    _gpu.stats().instructions.inc(item->computeCycles + 1);
    const WorkItem work = *item;
    auto issue = [this, work] { _gpu.access(_index, work.va, work.write); };
    if (work.computeCycles == 0)
        issue();
    else
        _eq.schedule(work.computeCycles, std::move(issue));
}

} // namespace idyll
