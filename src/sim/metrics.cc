#include "sim/metrics.hh"

#include <sstream>

#include "sim/json.hh"

namespace idyll
{

void
MetricsGroup::registerCounter(const std::string &name, const Counter *c)
{
    IDYLL_ASSERT(c, "null counter registered");
    _counters[name] = c;
}

void
MetricsGroup::registerAvg(const std::string &name, const AvgStat *a)
{
    IDYLL_ASSERT(a, "null avg registered");
    _avgs[name] = a;
}

void
MetricsGroup::registerDist(const std::string &name, const Distribution *d)
{
    IDYLL_ASSERT(d, "null distribution registered");
    _dists[name] = d;
}

MetricsGroup &
MetricsGroup::child(const std::string &name)
{
    for (const auto &c : _children) {
        if (c->name() == name)
            return *c;
    }
    _children.push_back(std::make_unique<MetricsGroup>(name));
    return *_children.back();
}

void
MetricsGroup::dump(std::ostream &os, const std::string &prefix) const
{
    const std::string base =
        prefix.empty() ? _name : prefix + "." + _name;
    for (const auto &[name, counter] : _counters)
        os << base << "." << name << " " << counter->value() << "\n";
    for (const auto &[name, avg] : _avgs) {
        os << base << "." << name << ".mean " << avg->mean() << "\n";
        os << base << "." << name << ".count " << avg->count() << "\n";
    }
    for (const auto &child : _children)
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
    section("counters", _counters, [&](const auto &counter) {
        key(counter.first) << counter.second->value();
    });
    section("avgs", _avgs, [&](const auto &avg) {
        key(avg.first) << "{\"mean\": " << avg.second->mean()
                       << ", \"count\": " << avg.second->count() << "}";
    });
    section("dists", _dists, [&](const auto &dist) {
        key(dist.first) << "{\"width\": " << dist.second->bucketWidth()
                        << ", \"buckets\": [";
        const char *comma = "";
        for (std::uint64_t b : dist.second->buckets()) {
            os << comma << b;
            comma = ", ";
        }
        os << "]}";
    });
    section("children", _children, [&](const auto &child) {
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

namespace
{

/** Split "a.b.c" into a head "a" and tail "b.c" (tail empty if none). */
std::pair<std::string, std::string>
splitPath(const std::string &path)
{
    const std::size_t dot = path.find('.');
    if (dot == std::string::npos)
        return {path, ""};
    return {path.substr(0, dot), path.substr(dot + 1)};
}

} // namespace

const Counter *
MetricsGroup::findCounter(const std::string &path) const
{
    const auto it = _counters.find(path);
    if (it != _counters.end())
        return it->second;
    const auto [head, tail] = splitPath(path);
    if (tail.empty())
        return nullptr;
    for (const auto &child : _children) {
        if (child->name() == head)
            return child->findCounter(tail);
    }
    return nullptr;
}

const AvgStat *
MetricsGroup::findAvg(const std::string &path) const
{
    const auto it = _avgs.find(path);
    if (it != _avgs.end())
        return it->second;
    const auto [head, tail] = splitPath(path);
    if (tail.empty())
        return nullptr;
    for (const auto &child : _children) {
        if (child->name() == head)
            return child->findAvg(tail);
    }
    return nullptr;
}

} // namespace idyll
