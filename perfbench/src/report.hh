/**
 * @file
 * Small, pure helpers the benchmark reports with: zero-safe ratios,
 * medians, metric-name validation, the paper's Fig 11 reference values
 * and the paper-gap metric, and the ordered name -> value list each
 * run prints.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench
{

/** @p num / @p den, or 0 when @p den is 0 (a ratio with no base). */
double ratio(double num, double den);

/** 1000 * @p count / @p base, or 0 when @p base is 0. */
double perKilo(double count, double base);

/** Median of @p values (the mean of the middle two for even sizes). */
double median(std::vector<double> values);

/**
 * A metric name as BENCHMARK.json allows it: 1 to 64 characters of
 * [A-Za-z0-9_.-], the first a letter or a digit.
 */
bool validMetricName(std::string_view name);

/** One scheme's average gain over baseline in the paper's Fig 11. */
struct PaperPoint
{
    const char *scheme; ///< sweep scheme name ("only-lazy", ...)
    double gainPct;     ///< average gain over baseline, percent
};

/**
 * The paper's Fig 11 averages, as quoted in the banner of
 * bench/bench_fig11_overall.cc: Only-Lazy +55.8%, Only-Dir +27.3%,
 * IDYLL-InMem ~+70%, IDYLL +69.9%, zero-latency oracle ~+73%.
 */
const std::vector<PaperPoint> &paperFig11();

/** The paper's IDYLL average gain over baseline (Fig 11), percent. */
constexpr double kPaperIdyllGainPct = 69.9;

/**
 * Average gain over baseline, percent, of one scheme column:
 * 100 * (arithmetic mean of the per-app speedups - 1), the same
 * average the bench tables print.
 */
double averageGainPct(const std::vector<double> &speedups);

/**
 * Mean over paperFig11() of |measured gain - paper gain|, in
 * percentage points. @p gainPct maps a scheme name to its measured
 * average gain; every paper scheme must be present.
 */
double paperGapPp(const std::map<std::string, double> &gainPct);

/** Ordered name -> value pairs, printed as one JSON object. */
class Values
{
  public:
    /**
     * Set @p name (appended on first use, overwritten after).
     * @throws std::invalid_argument unless validMetricName(@p name).
     */
    void set(const std::string &name, double value);

    /** @throws std::out_of_range when @p name was never set. */
    double get(const std::string &name) const;

    /** {"name":value,...} with round-trip precision. */
    std::string toJson() const;

  private:
    std::vector<std::pair<std::string, double>> _items;
};

/** JSON number text for @p value with round-trip precision. */
std::string jsonNumber(double value);

/** @p s as a quoted, escaped JSON string. */
std::string jsonString(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
