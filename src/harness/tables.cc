#include "harness/tables.hh"

#include <cmath>
#include <iomanip>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace idyll
{

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        IDYLL_ASSERT(v > 0.0, "geomean of non-positive value");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

ResultTable::ResultTable(std::string title,
                         std::vector<std::string> columns)
    : _title(std::move(title)), _columns(std::move(columns))
{
}

void
ResultTable::addRow(const std::string &label, std::vector<double> values)
{
    IDYLL_ASSERT(values.size() == _columns.size(),
                 "row '", label, "' has ", values.size(),
                 " values for ", _columns.size(), " columns");
    _rows.emplace_back(label, std::move(values));
}

void
ResultTable::addAverageRow()
{
    std::vector<double> avgs(_columns.size(), 0.0);
    for (std::size_t c = 0; c < _columns.size(); ++c) {
        std::vector<double> column;
        column.reserve(_rows.size());
        for (const auto &[label, values] : _rows)
            column.push_back(values[c]);
        avgs[c] = mean(column);
    }
    _rows.emplace_back("Ave.", std::move(avgs));
}

void
ResultTable::print(std::ostream &os, int precision) const
{
    constexpr int kLabelWidth = 10;
    constexpr int kColWidth = 14;

    os << "\n== " << _title << " ==\n";
    os << std::left << std::setw(kLabelWidth) << "app";
    for (const std::string &col : _columns)
        os << std::right << std::setw(kColWidth) << col;
    os << "\n";
    os << std::string(kLabelWidth +
                          kColWidth * _columns.size(), '-')
       << "\n";
    for (const auto &[label, values] : _rows) {
        os << std::left << std::setw(kLabelWidth) << label;
        for (double v : values) {
            os << std::right << std::setw(kColWidth) << std::fixed
               << std::setprecision(precision) << v;
        }
        os << "\n";
    }
    os.flush();
}

void
writeSuiteJson(std::ostream &os, const std::string &suite, double scale,
               const std::vector<std::string> &apps,
               const std::vector<std::string> &schemes,
               const std::vector<std::vector<SimResults>> &grid)
{
    IDYLL_ASSERT(grid.size() == schemes.size(),
                 "suite '", suite, "' has ", grid.size(),
                 " rows for ", schemes.size(), " schemes");
    os << "{\n";
    os << "  \"suite\": \"" << jsonEscape(suite) << "\",\n";
    os << "  \"scale\": " << jsonNumber(scale) << ",\n";
    os << "  \"apps\": [";
    for (std::size_t i = 0; i < apps.size(); ++i)
        os << (i ? ", " : "") << "\"" << jsonEscape(apps[i]) << "\"";
    os << "],\n";
    os << "  \"schemes\": [";
    for (std::size_t i = 0; i < schemes.size(); ++i)
        os << (i ? ", " : "") << "\"" << jsonEscape(schemes[i]) << "\"";
    os << "],\n";
    os << "  \"results\": [\n";
    bool first = true;
    for (const auto &row : grid) {
        IDYLL_ASSERT(row.size() == apps.size(),
                     "suite '", suite, "' has a row of ", row.size(),
                     " results for ", apps.size(), " apps");
        for (const SimResults &r : row) {
            os << (first ? "    " : ",\n    ") << r.toJson();
            first = false;
        }
    }
    os << "\n  ]\n}\n";
    os.flush();
}

} // namespace idyll
