#include "sim/metrics.hh"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace idyll
{

namespace
{

/** @p stats in name order; a name registered twice is a bug. */
template <typename Named>
Named
byName(Named stats)
{
    const auto less = [](const auto &a, const auto &b) {
        return std::strcmp(a.first, b.first) < 0;
    };
    std::sort(stats.begin(), stats.end(), less);
    for (std::size_t i = 1; i < stats.size(); ++i)
        IDYLL_ASSERT(less(stats[i - 1], stats[i]),
                     "statistic registered twice: ", stats[i].first);
    return stats;
}

} // namespace

void
MetricsGroup::dump(std::ostream &os, const std::string &prefix) const
{
    const std::string base =
        prefix.empty() ? _name : prefix + "." + _name;
    for (const auto &[name, counter] : byName(_counters))
        os << base << "." << name << " " << counter->value() << "\n";
    for (const auto &[name, avg] : byName(_avgs)) {
        os << base << "." << name << ".mean " << avg->mean() << "\n";
        os << base << "." << name << ".count " << avg->count() << "\n";
    }
    for (const MetricsGroup *child : _children)
        child->dump(os, base);
}

void
MetricsGroup::jsonInto(std::ostream &os) const
{
    // One `"kind": {...}` section per non-empty kind, in this order;
    // sections and their members are joined by ", ".
    const char *sep = "";
    auto section = [&](const char *kind, const auto &entries,
                       const auto &write) {
        if (entries.empty())
            return;
        os << sep << "\"" << kind << "\": {";
        sep = ", ";
        const char *inner = "";
        for (const auto &entry : entries) {
            os << inner;
            inner = ", ";
            write(entry);
        }
        os << "}";
    };
    auto key = [&](const std::string &name) -> std::ostream & {
        return os << "\"" << jsonEscape(name) << "\": ";
    };
    os << "{";
    section("labels", _labels, [&](const auto &label) {
        key(label.first) << "\"" << jsonEscape(label.second) << "\"";
    });
    section("counters", byName(_counters), [&](const auto &counter) {
        key(counter.first) << counter.second->value();
    });
    section("avgs", byName(_avgs), [&](const auto &avg) {
        key(avg.first) << "{\"mean\": " << jsonNumber(avg.second->mean())
                       << ", \"count\": " << avg.second->count() << "}";
    });
    section("children", _children, [&](const MetricsGroup *child) {
        key(child->name());
        child->jsonInto(os);
    });
    os << "}";
}

std::string
MetricsGroup::toJson() const
{
    std::ostringstream os;
    jsonInto(os);
    return os.str();
}

} // namespace idyll
