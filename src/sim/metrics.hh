/**
 * @file
 * Hierarchical metrics registry.
 *
 * A component's statistics holder is a MetricsGroup, and each of its
 * Counter/AvgStat members registers itself by name as it is built:
 *
 *     struct IrmbStats : MetricsGroup
 *     {
 *         IrmbStats() : MetricsGroup("irmb") {}
 *         Counter inserts{*this, "inserts"};
 *     };
 *
 * so a declared statistic cannot be left out of the outputs. Owners
 * attach their components' groups to their own with addChild(); the
 * system's root group ("system") is the whole tree. The tree can
 *
 *  - dump every statistic as "path value" text lines (gem5 stats-file
 *    style),
 *  - serialize as nested JSON for SimResults::toJson.
 *
 * Groups may carry string labels ("gpu" -> "2") that serialize into
 * the JSON form, so per-GPU instances are queryable without parsing
 * the group name.
 *
 * Groups store raw pointers to their statistics, names and children:
 * names must be string literals, and an attached child must outlive
 * every dump of its parent (in practice all live inside one System).
 */

#ifndef IDYLL_SIM_METRICS_HH
#define IDYLL_SIM_METRICS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace idyll
{

class MetricsGroup;

/** Monotonically increasing event count. */
class Counter
{
  public:
    Counter() = default;
    /** A counter registered as @p name in @p group. */
    Counter(MetricsGroup &group, const char *name);

    void inc(std::uint64_t n = 1) { _value += n; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/** Running sum / count pair; reports the mean and the total. */
class AvgStat
{
  public:
    AvgStat() = default;
    /** An average registered as @p name in @p group. */
    AvgStat(MetricsGroup &group, const char *name);

    void
    sample(double v)
    {
        _sum += v;
        ++_count;
    }

    /**
     * Fold another accumulator into this one (shard stat-lane
     * aggregation). Exact for integer-valued samples, which is what
     * every cross-shard AvgStat records, so folded results match a
     * serial run bit-for-bit.
     */
    void
    merge(const AvgStat &o)
    {
        _sum += o._sum;
        _count += o._count;
    }

    double sum() const { return _sum; }
    std::uint64_t count() const { return _count; }
    double mean() const { return _count ? _sum / _count : 0.0; }

    void
    reset()
    {
        _sum = 0.0;
        _count = 0;
    }

  private:
    double _sum = 0.0;
    std::uint64_t _count = 0;
};

// A group holds the registration, so a statistic is only its value.
static_assert(sizeof(Counter) == 8 && sizeof(AvgStat) == 16);

/** Named node in the metrics tree. */
class MetricsGroup
{
  public:
    explicit MetricsGroup(std::string name) : _name(std::move(name)) {}

    MetricsGroup(const MetricsGroup &) = delete;
    MetricsGroup &operator=(const MetricsGroup &) = delete;

    const std::string &name() const { return _name; }

    /** Attach a string label ("gpu" -> "2"); JSON-only metadata. */
    void setLabel(const std::string &key, const std::string &value)
    {
        _labels[key] = value;
    }

    /** Attach @p child below this group, after the children so far. */
    void addChild(const MetricsGroup &child) { _children.push_back(&child); }

    /**
     * Recursively print "group.stat value" lines: counters first (in
     * name order), then averages as .mean/.count pairs, then children
     * in attach order.
     */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /**
     * Serialize this subtree as one nested JSON object:
     *   {"labels": {...}, "counters": {...},
     *    "avgs": {"x": {"mean": M, "count": N}},
     *    "children": {"gpu0": {...}}}
     * Empty sections are omitted; labels, counters and averages are
     * in name order and children in attach order, so output is
     * deterministic.
     */
    std::string toJson() const;

  private:
    friend class Counter;
    friend class AvgStat;

    template <typename Stat>
    using Named = std::vector<std::pair<const char *, const Stat *>>;

    void jsonInto(std::ostream &os) const;

    std::string _name;
    std::map<std::string, std::string> _labels;
    // Registration order: a statistic adds one pointer pair and no
    // string. dump() and toJson() sort a copy by name.
    Named<Counter> _counters;
    Named<AvgStat> _avgs;
    std::vector<const MetricsGroup *> _children;
};

inline Counter::Counter(MetricsGroup &group, const char *name)
{
    group._counters.emplace_back(name, this);
}

inline AvgStat::AvgStat(MetricsGroup &group, const char *name)
{
    group._avgs.emplace_back(name, this);
}

} // namespace idyll

#endif // IDYLL_SIM_METRICS_HH
