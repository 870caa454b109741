/**
 * @file
 * The benchmark's workloads and their two passes.
 *
 * Every workload is a closed batch of simulations driven through the
 * library's public entry points (MultiGpuSystem construct / launch /
 * eventQueue().run / finish), timed from outside:
 *
 *  - the timed pass (tracing off) repeats the workload until the
 *    requested seconds are used up and reports the end-to-end metrics
 *    as medians over the repetitions;
 *  - the traced pass runs the workload once untraced and once traced,
 *    with a MirrorSink timing the replayed layer calls, and reports
 *    the per-layer metrics.
 *
 * Every simulation's output is checked (translation-state digests,
 * scoreboard span sums, oracle coverage); a cell, window or run that
 * fails its check counts as a failed operation.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mirror.hh"
#include "report.hh"

namespace perfbench
{

/** What one benchmark run was asked to do. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false; ///< false: timed pass; true: traced pass
};

/** What one benchmark run found. */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Values values;
    /** One line per failed check. */
    std::vector<std::string> notes;
    /** The digests each cell or run recorded, one line apiece. */
    std::vector<std::string> records;

    /** Record one operation and whether it passed its check. */
    void count(bool ok, const std::string &what);
};

/**
 * Run @p opts.workload's timed or traced pass: "fig11-grid",
 * "serve-obs" or "shard32".
 * @throws std::invalid_argument for an unknown workload name.
 */
Outcome runWorkload(const RunOptions &opts);

/**
 * Replay a traced run of @p app (at @p scale, IDYLL on 4 GPUs) through
 * a MirrorSink and return what it measured. Used by the benchmark's
 * own tests.
 */
MirrorStats mirrorRun(const std::string &app, double scale,
                      std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
