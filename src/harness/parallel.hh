/**
 * @file
 * Parallel experiment runner: fans an (app x scheme) grid out across
 * a std::thread pool. Every (app, scheme) pair builds a fresh,
 * fully independent MultiGpuSystem, so the sweep is embarrassingly
 * parallel; results land in their grid slot regardless of completion
 * order, and every run seeds its RNGs purely from its own
 * SystemConfig, so parallel output is bit-identical to serial output.
 */

#ifndef IDYLL_HARNESS_PARALLEL_HH
#define IDYLL_HARNESS_PARALLEL_HH

#include <string>
#include <vector>

#include "harness/results.hh"
#include "harness/runner.hh"

namespace idyll
{

/**
 * Resolve a job-count request to a concrete worker count.
 *
 * @p requested of 0 means "auto": use the IDYLL_JOBS environment
 * variable if set to a positive integer, otherwise
 * std::thread::hardware_concurrency() (with a floor of 1). Any
 * positive @p requested wins over both.
 */
unsigned resolveJobs(unsigned requested = 0);

/**
 * Runs (app x scheme) grids on a pool of worker threads.
 *
 * The grid is flattened scheme-major and handed to workers through an
 * atomic cursor; each worker writes its SimResults into the
 * pre-sized output slot for its grid index, so the returned
 * [scheme][app] matrix is ordered exactly as a serial double loop
 * would produce it.
 */
class ParallelRunner
{
  public:
    /** @p jobs 0 = auto (IDYLL_JOBS, then hardware concurrency). */
    explicit ParallelRunner(unsigned jobs = 0);

    /** The resolved worker count. */
    unsigned jobs() const { return _jobs; }

    /**
     * Run every app under every scheme. Each cell runs at
     * @p scale times its point's work factor, on the app's inputs
     * reshaped by @p transform when one is given.
     * Results are indexed [scheme][app] in the given orders.
     */
    std::vector<std::vector<SimResults>>
    runGrid(const std::vector<std::string> &apps,
            const std::vector<SchemePoint> &schemes, double scale = 1.0,
            const AppTransform &transform = {}) const;

  private:
    unsigned _jobs;
};

} // namespace idyll

#endif // IDYLL_HARNESS_PARALLEL_HH
