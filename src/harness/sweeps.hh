/**
 * @file
 * The experiment registry: every paper figure, table and ablation as
 * one SweepSpec — its apps, its (label, config) points, the paper's
 * expectation and the table it prints. tools/idyll_sweep runs any
 * spec on the parallel runner, writes results/<name>.json and prints
 * the table.
 */

#ifndef IDYLL_HARNESS_SWEEPS_HH
#define IDYLL_HARNESS_SWEEPS_HH

#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace idyll
{

/** One table column: a label and a value taken from one app's row. */
struct SweepColumn
{
    std::string label;
    /** @p row holds one app's results, one per point, in point order. */
    std::function<double(const std::vector<SimResults> &row)> value;
};

/** The table a sweep prints: one row per app. */
struct SweepTable
{
    std::string title;
    std::vector<SweepColumn> columns;
    bool average = true; ///< append the paper's "Ave." row
    int precision = 3;   ///< digits after the decimal point
};

/** One registered experiment. */
struct SweepSpec
{
    std::string name;        ///< e.g. "fig11"
    std::string description; ///< what the figure shows
    std::string expectation; ///< the paper's numbers for it
    std::vector<std::string> apps;
    std::vector<SchemePoint> points; ///< simulation-scaled configs
    SweepTable table;
    AppTransform transform{}; ///< input reshaping; empty = none
    /** The point labels, in order (the JSON "schemes" array). */
    std::vector<std::string> schemes{};
};

/** Every registered sweep, in figure order. */
const std::vector<SweepSpec> &allSweeps();

/** The registered sweep names, in figure order. */
std::vector<std::string> sweepNames();

/** Look a sweep up by name (empty optional = unknown). */
std::optional<SweepSpec> sweepByName(const std::string &name);

/**
 * Print @p spec's banner and table for its [point][app] result
 * @p grid.
 */
void printSweepTable(std::ostream &os, const SweepSpec &spec,
                     const std::vector<std::vector<SimResults>> &grid);

} // namespace idyll

#endif // IDYLL_HARNESS_SWEEPS_HH
