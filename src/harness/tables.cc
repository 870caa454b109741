#include "harness/tables.hh"

#include <cmath>
#include <iomanip>
#include <sstream>

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

namespace
{

/** Streams `"key": value` members with JSON punctuation. */
class JsonObject
{
  public:
    explicit JsonObject(std::ostream &os) : _os(os) { _os << "{"; }

    /** Start member @p name; the caller streams its value (raw JSON
     *  from a sub-system, for one). */
    std::ostream &
    key(const char *name)
    {
        _os << _sep << "\"" << name << "\": ";
        _sep = ", ";
        return _os;
    }

    void add(const char *name, std::uint64_t v) { key(name) << v; }
    void add(const char *name, double v) { key(name) << jsonNumber(v); }

    void
    add(const char *name, const std::string &value)
    {
        key(name) << "\"" << jsonEscape(value) << "\"";
    }

    void
    add(const char *name, const std::vector<std::uint64_t> &values)
    {
        key(name) << "[";
        for (std::size_t i = 0; i < values.size(); ++i)
            _os << (i ? ", " : "") << values[i];
        _os << "]";
    }

    void close() { _os << "}"; }

  private:
    std::ostream &_os;
    const char *_sep = "";
};

} // namespace

std::string
SimResults::toJson() const
{
    std::ostringstream os;
    JsonObject obj(os);
    obj.add("app", app);
    obj.add("scheme", scheme);
    obj.add("execTicks", static_cast<std::uint64_t>(execTicks));
    obj.add("instructions", instructions);
    obj.add("accesses", accesses);
    obj.add("localAccesses", localAccesses);
    obj.add("remoteAccesses", remoteAccesses);
    obj.add("l1Hits", l1Hits);
    obj.add("l1Misses", l1Misses);
    obj.add("l2Hits", l2Hits);
    obj.add("l2Misses", l2Misses);
    obj.add("mpki", mpki);
    obj.add("demandTlbMisses", demandTlbMisses);
    obj.add("demandMissLatencyAvg", demandMissLatencyAvg);
    obj.add("demandMissLatencyTotal", demandMissLatencyTotal);
    obj.add("farFaults", farFaults);
    obj.add("faultResolveLatencyAvg", faultResolveLatencyAvg);
    obj.add("demandWalks", demandWalks);
    obj.add("invalWalks", invalWalks);
    obj.add("updateWalks", updateWalks);
    obj.add("pwcHits", pwcHits);
    obj.add("pwcMisses", pwcMisses);
    obj.add("pwcStaleDrops", pwcStaleDrops);
    obj.add("mmuCacheLevelHits", mmuCacheLevelHits);
    obj.add("mmuCacheLevelMisses", mmuCacheLevelMisses);
    obj.add("walkQueueFullStalls", walkQueueFullStalls);
    obj.add("l2SubConflicts", l2SubConflicts);
    obj.add("l2DeadEvictions", l2DeadEvictions);
    obj.add("busyDemandCycles", busyDemandCycles);
    obj.add("busyInvalCycles", busyInvalCycles);
    obj.add("invalSent", invalSent);
    obj.add("invalNecessary", invalNecessary);
    obj.add("invalUnnecessary", invalUnnecessary);
    obj.add("invalServiceLatencyTotal", invalServiceLatencyTotal);
    obj.add("migrationRequests", migrationRequests);
    obj.add("migrations", migrations);
    obj.add("migrationWaitAvg", migrationWaitAvg);
    obj.add("migrationWaitTotal", migrationWaitTotal);
    obj.add("migrationTotalAvg", migrationTotalAvg);
    obj.add("irmbInserts", irmbInserts);
    obj.add("irmbLookupHits", irmbLookupHits);
    obj.add("irmbElided", irmbElided);
    obj.add("irmbWrittenBack", irmbWrittenBack);
    obj.add("irmbEvictions", irmbEvictions);
    obj.add("transFwForwarded", transFwForwarded);
    obj.add("vmCacheHits", vmCacheHits);
    obj.add("vmCacheMisses", vmCacheMisses);
    obj.add("sharingBuckets", sharingBuckets);
    obj.add("networkBytes", networkBytes);
    // Host timings are emitted only when measured: they differ run to
    // run, and CI compares serialized results byte-for-byte.
    if (hostSeconds > 0.0) {
        obj.add("hostSeconds", hostSeconds);
        obj.add("eventsExecuted", eventsExecuted);
        obj.add("eventsPerSec", eventsPerSec);
    }
    if (!traceDigest.empty())
        obj.add("traceDigest", traceDigest);
    if (!metricsJson.empty())
        obj.key("metrics") << metricsJson;
    if (latDemandCount || latInvalCount) {
        obj.add("latDemandCount", latDemandCount);
        obj.add("latDemandCycles", latDemandCycles);
        obj.add("latInvalCount", latInvalCount);
        obj.add("latInvalCycles", latInvalCycles);
        obj.add("latDemandPhaseCycles", latDemandPhaseCycles);
        obj.add("latInvalPhaseCycles", latInvalPhaseCycles);
    }
    if (!latencyJson.empty())
        obj.key("latency") << latencyJson;
    if (!samplesJson.empty())
        obj.key("samples") << samplesJson;
    // Run-shape telemetry (hostStats && sharded): omitted otherwise so
    // serialized results stay byte-identical across shard counts.
    if (!shardTelemetryJson.empty()) {
        obj.add("shardImbalancePct", shardImbalancePct);
        obj.add("lookaheadStallPct", lookaheadStallPct);
        obj.key("shardTelemetry") << shardTelemetryJson;
    }
    obj.close();
    return os.str();
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
