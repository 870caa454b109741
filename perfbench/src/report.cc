#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench
{

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
perKilo(double count, double base)
{
    return 1000.0 * ratio(count, base);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    const auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

const std::vector<PaperPoint> &
paperFig11()
{
    static const std::vector<PaperPoint> points = {
        {"only-lazy", 55.8}, {"only-dir", 27.3}, {"inmem", 70.0},
        {"idyll", 69.9},     {"zero", 73.0},
    };
    return points;
}

double
averageGainPct(const std::vector<double> &speedups)
{
    if (speedups.empty())
        return 0.0;
    const double mean =
        std::accumulate(speedups.begin(), speedups.end(), 0.0) /
        static_cast<double>(speedups.size());
    return 100.0 * (mean - 1.0);
}

double
paperGapPp(const std::map<std::string, double> &gainPct)
{
    double sum = 0.0;
    for (const PaperPoint &p : paperFig11()) {
        auto it = gainPct.find(p.scheme);
        if (it == gainPct.end())
            throw std::invalid_argument(std::string("paper gap: no ") +
                                        "measured gain for " + p.scheme);
        sum += std::fabs(it->second - p.gainPct);
    }
    return sum / static_cast<double>(paperFig11().size());
}

void
Values::set(const std::string &name, double value)
{
    if (!validMetricName(name))
        throw std::invalid_argument("bad metric name '" + name + "'");
    for (auto &item : _items) {
        if (item.first == name) {
            item.second = value;
            return;
        }
    }
    _items.emplace_back(name, value);
}

double
Values::get(const std::string &name) const
{
    for (const auto &item : _items)
        if (item.first == name)
            return item.second;
    throw std::out_of_range("no value named " + name);
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << value;
    return os.str();
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
Values::toJson() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < _items.size(); ++i) {
        if (i)
            out += ',';
        out += jsonString(_items[i].first);
        out += ':';
        out += jsonNumber(_items[i].second);
    }
    return out + "}";
}

} // namespace perfbench
