#include "harness/bench_compare.hh"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "sim/json.hh"

namespace idyll
{

std::optional<double>
BenchMetrics::get(const std::string &name) const
{
    for (const auto &[key, value] : values)
        if (key == name)
            return value;
    return std::nullopt;
}

std::optional<BenchMetrics>
parseBenchJson(const std::string &text)
{
    const JsonValue root = parseJson(text).value_or(JsonValue());
    if (!root["metrics"].isObject())
        return std::nullopt;
    BenchMetrics m;
    m.bench = root["bench"].asString().value_or("");
    m.schema = static_cast<int>(root["schema"].asI64().value_or(0));
    for (const JsonValue::Member &metric : root["metrics"].members()) {
        const auto value = metric.value.asDouble();
        if (!value)
            return std::nullopt;
        m.values.emplace_back(metric.key, *value);
    }
    return m;
}

std::optional<BenchMetrics>
parseGoogleBenchmark(const std::string &text,
                     const std::string &namePrefix)
{
    const JsonValue root = parseJson(text).value_or(JsonValue());
    for (const JsonValue &entry : root["benchmarks"].items()) {
        const auto name = entry["name"].asString();
        const auto ips = entry["items_per_second"].asDouble();
        if (!name || name->rfind(namePrefix, 0) != 0 || !ips)
            continue;
        BenchMetrics m;
        m.bench = "events_per_sec";
        m.schema = 1;
        m.values.emplace_back("eventsPerSec", *ips);
        return m;
    }
    return std::nullopt;
}

std::string
benchMetricsToJson(const BenchMetrics &m)
{
    std::ostringstream os;
    os << "{\"bench\":\"" << jsonEscape(m.bench)
       << "\",\"schema\":" << m.schema << ",\"metrics\":{";
    for (std::size_t i = 0; i < m.values.size(); ++i)
        os << (i ? "," : "") << "\"" << jsonEscape(m.values[i].first)
           << "\":" << jsonNumber(m.values[i].second);
    os << "}}";
    return os.str();
}

bool
metricHigherIsBetter(const std::string &name)
{
    // Throughput and completed-work counters: falling is the
    // regression. Everything else (percentiles, cycle counts,
    // migrations, amplification ratios) regresses by rising. The
    // eventsPerSec prefix also covers the per-shard-count variants
    // (eventsPerSecShards1/4/8) the shard scaling bench emits.
    static const std::set<std::string> higher = {
        "steadyThroughputPerKcycle",
        "steadyFinished",
        "stormFinished",
        "demandFinished",
    };
    if (name.rfind("eventsPerSec", 0) == 0)
        return true;
    return higher.count(name) > 0;
}

bool
metricIsNeutral(const std::string &name)
{
    // Run-shape telemetry from the shard scaling bench: imbalance and
    // stall percentages vary with core count and scheduler noise, so
    // they inform but never gate.
    return name.rfind("shardImbalance", 0) == 0 ||
           name.rfind("lookaheadStall", 0) == 0 ||
           name.rfind("stallWindow", 0) == 0;
}

DiffReport
diffBenchMetrics(const BenchMetrics &baseline,
                 const BenchMetrics &current, const DiffOptions &opt)
{
    DiffReport report;
    for (const auto &[name, base] : baseline.values) {
        if (opt.skip.count(name))
            continue;
        const auto cur = current.get(name);
        if (!cur) {
            report.missing.push_back(name);
            report.breached = true;
            continue;
        }

        MetricDelta d;
        d.name = name;
        d.baseline = base;
        d.current = *cur;
        d.higherBetter = metricHigherIsBetter(name);
        d.neutral = metricIsNeutral(name);
        const auto it = opt.thresholds.find(name);
        d.thresholdPct = it != opt.thresholds.end()
                             ? it->second
                             : opt.defaultThresholdPct;

        if (base != 0.0) {
            d.deltaPct = 100.0 * (*cur - base) / std::fabs(base);
        } else {
            d.deltaPct = *cur == 0.0 ? 0.0 : 100.0;
        }
        const double bad =
            d.higherBetter ? -d.deltaPct : d.deltaPct;
        d.regressed = !d.neutral && bad > d.thresholdPct;
        if (d.regressed)
            report.breached = true;
        report.deltas.push_back(d);
    }
    return report;
}

std::string
DiffReport::summary() const
{
    std::ostringstream os;
    os << std::left << std::setw(28) << "metric" << std::right
       << std::setw(16) << "baseline" << std::setw(16) << "current"
       << std::setw(10) << "delta%" << std::setw(8) << "limit%"
       << "  verdict\n";
    for (const MetricDelta &d : deltas) {
        os << std::left << std::setw(28) << d.name << std::right
           << std::fixed << std::setprecision(2) << std::setw(16)
           << d.baseline << std::setw(16) << d.current
           << std::showpos << std::setw(10) << d.deltaPct
           << std::noshowpos << std::setw(8) << d.thresholdPct
           << "  "
           << (d.regressed
                   ? "REGRESSED"
                   : (d.neutral ? "neutral"
                                : (d.higherBetter ? "ok (higher better)"
                                                  : "ok")))
           << "\n";
        os.unsetf(std::ios::fixed);
        os << std::setprecision(6);
    }
    for (const std::string &name : missing)
        os << "MISSING in current artifact: " << name << "\n";
    os << (breached ? "FAIL" : "PASS") << ": " << deltas.size()
       << " metrics compared, " << missing.size() << " missing\n";
    return os.str();
}

} // namespace idyll
