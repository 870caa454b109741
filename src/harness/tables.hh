/**
 * @file
 * Fixed-width result tables, so every sweep prints its rows in the
 * same layout as the paper's figures.
 */

#ifndef IDYLL_HARNESS_TABLES_HH
#define IDYLL_HARNESS_TABLES_HH

#include <ostream>
#include <string>
#include <vector>

#include "harness/results.hh"

namespace idyll
{

/** Arithmetic mean of a series (the paper's "Ave." columns). */
double mean(const std::vector<double> &values);

/** Geometric mean (for speedup series). */
double geomean(const std::vector<double> &values);

/**
 * A simple column-formatted table: one label column plus N numeric
 * columns; an average row can be appended automatically.
 */
class ResultTable
{
  public:
    ResultTable(std::string title, std::vector<std::string> columns);

    /** Append one row of values (must match the column count). */
    void addRow(const std::string &label, std::vector<double> values);

    /** Append an "Ave." row of per-column arithmetic means. */
    void addAverageRow();

    /** Render with @p precision digits after the decimal point. */
    void print(std::ostream &os, int precision = 3) const;

  private:
    std::string _title;
    std::vector<std::string> _columns;
    std::vector<std::pair<std::string, std::vector<double>>> _rows;
};

/**
 * Write one suite's [scheme][app] result grid as a JSON document:
 *
 *   {"suite": ..., "scale": ..., "apps": [...], "schemes": [...],
 *    "results": [{...}, ...]}
 *
 * "results" is flattened scheme-major (the ParallelRunner::runGrid
 * order); each element is SimResults::toJson. See README.md for the
 * schema.
 */
void writeSuiteJson(std::ostream &os, const std::string &suite,
                    double scale,
                    const std::vector<std::string> &apps,
                    const std::vector<std::string> &schemes,
                    const std::vector<std::vector<SimResults>> &grid);

} // namespace idyll

#endif // IDYLL_HARNESS_TABLES_HH
