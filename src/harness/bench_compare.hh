/**
 * @file
 * BENCH_*.json artifact comparison: the library behind
 * tools/idyll_bench_diff and the CI perf-trajectory gate.
 *
 * A BENCH artifact is a single-line JSON object with a "bench" name,
 * a "schema" version, and a flat "metrics" object of name -> number
 * (see DESIGN.md "BENCH schema"). The serve harness emits one per
 * run; parseGoogleBenchmark() adapts google-benchmark JSON output
 * (items_per_second) into the same shape so the event-dispatch
 * micro-benchmark rides the same diff path.
 *
 * diffBenchMetrics() compares two artifacts metric by metric.
 * Direction matters: for throughput-like metrics (higher is better) a
 * regression is the current value falling below the baseline; for
 * latency-like metrics (lower is better) it is the current value
 * rising above it. Each metric gets a percent threshold — a default
 * plus per-metric overrides — and the report says which metrics
 * breached so callers can exit nonzero.
 */

#ifndef IDYLL_HARNESS_BENCH_COMPARE_HH
#define IDYLL_HARNESS_BENCH_COMPARE_HH

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace idyll
{

/** One parsed BENCH_*.json artifact (header + flat metrics). */
struct BenchMetrics
{
    std::string bench;  ///< the "bench" header, e.g. "serve"
    int schema = 0;     ///< the "schema" header
    /** Metric name -> value, in the artifact's order. */
    std::vector<std::pair<std::string, double>> values;

    /** Value by name (empty optional when absent). */
    std::optional<double> get(const std::string &name) const;
};

/**
 * Parse the "bench"/"schema" header and the flat "metrics" object out
 * of a BENCH artifact. Empty optional when the text is not JSON, has
 * no "metrics" object, or a metric is not a number.
 */
std::optional<BenchMetrics> parseBenchJson(const std::string &text);

/**
 * Adapt google-benchmark --benchmark_format=json output: the first
 * entry of "benchmarks" whose name starts with @p namePrefix and that
 * reports items_per_second contributes that value as an
 * "eventsPerSec" metric. Empty optional when no entry matches or the
 * text is not JSON.
 */
std::optional<BenchMetrics>
parseGoogleBenchmark(const std::string &text,
                     const std::string &namePrefix);

/** Serialize @p m back into the single-line BENCH artifact form. */
std::string benchMetricsToJson(const BenchMetrics &m);

/** Knobs for one diff. */
struct DiffOptions
{
    /** Allowed change (percent) for metrics without an override. */
    double defaultThresholdPct = 10.0;

    /** Per-metric threshold overrides (percent). */
    std::map<std::string, double> thresholds;

    /** Metrics ignored entirely (host-varying: eventsPerSec when
     *  diffing deterministic sim baselines, for example). */
    std::set<std::string> skip;
};

/** One metric's comparison. */
struct MetricDelta
{
    std::string name;
    double baseline = 0.0;
    double current = 0.0;
    /** Signed change in percent of baseline (current - baseline). */
    double deltaPct = 0.0;
    double thresholdPct = 0.0;
    bool higherBetter = false;
    /** Informational metric: reported but never gates (see
     *  metricIsNeutral). */
    bool neutral = false;
    /** The change moved in the bad direction past the threshold. */
    bool regressed = false;
};

/** The full comparison result. */
struct DiffReport
{
    std::vector<MetricDelta> deltas;
    /** Baseline metrics absent from the current artifact (each one is
     *  a breach: a metric silently vanishing must fail the gate). */
    std::vector<std::string> missing;
    bool breached = false;

    /** Human-readable table plus a PASS/FAIL verdict line. */
    std::string summary() const;
};

/**
 * Is @p name a metric where larger values are better? Throughput and
 * completed-work counters are; everything else (latencies, cycle
 * counts, migrations, invalidations...) is treated as lower-better.
 */
bool metricHigherIsBetter(const std::string &name);

/**
 * Is @p name an informational run-shape metric (shard imbalance,
 * lookahead stalls)? Neutral metrics appear in diff tables with their
 * delta but never trip the regression gate in either direction: they
 * describe how a run parallelized on one machine, not how fast the
 * simulator is.
 */
bool metricIsNeutral(const std::string &name);

/**
 * Compare @p current against @p baseline under @p opt. Metrics only
 * present in @p current are ignored (new metrics need a baseline
 * regeneration, not a gate failure); metrics only present in
 * @p baseline are breaches.
 */
DiffReport diffBenchMetrics(const BenchMetrics &baseline,
                            const BenchMetrics &current,
                            const DiffOptions &opt);

} // namespace idyll

#endif // IDYLL_HARNESS_BENCH_COMPARE_HH
