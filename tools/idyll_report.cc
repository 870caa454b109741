/**
 * @file
 * idyll_report — turn results JSON (from `idyll_sim --json FILE` or
 * the sweep suite files under results/) into per-phase latency
 * attribution tables and bottleneck calls.
 *
 *   idyll_sim --app PR --scheme idyll --latency --json run.json
 *   idyll_report run.json            # attribution table + bottleneck
 *   idyll_report --diff a.json b.json  # phase-by-phase comparison
 *   idyll_report --check run.json    # exit 1 unless spans sum exactly
 *
 * Runs must have been executed with the latency scoreboard enabled
 * (idyll_sim or idyll_sweep --latency); runs without attribution data are
 * listed but carry no table (and fail --check).
 *
 * Each FILE is parsed whole (sim/json.hh): either one results object
 * or a suite document whose "results" array holds them, each read by
 * SimResults::fromJson. A file that is not valid JSON is an error
 * naming the byte offset; a mistyped member, or attribution counts
 * without their phase arrays, is an error naming the file.
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/results.hh"
#include "sim/json.hh"
#include "sim/latency.hh"

namespace
{

using idyll::JsonValue;
using idyll::LatencyPhase;

/** @p part in percent of @p whole (0 when @p whole is 0). */
double
pct(std::uint64_t part, std::uint64_t whole)
{
    return whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0;
}

/** @p total over @p count (0 when @p count is 0). */
double
avg(std::uint64_t total, std::uint64_t count)
{
    return count ? static_cast<double>(total) / static_cast<double>(count)
                 : 0.0;
}

/** Index of the largest value; ties go to the lower index. */
std::size_t
largest(const std::vector<std::uint64_t> &values)
{
    return static_cast<std::size_t>(
        std::max_element(values.begin(), values.end()) - values.begin());
}

/** One results object: its SimResults fields plus what the report
 *  takes from its raw-JSON members. */
struct Run : idyll::SimResults
{
    explicit Run(idyll::SimResults sim) : SimResults(std::move(sim)) {}

    std::string file;
    // Demand end-to-end histogram summary (from the "latency" blob).
    std::uint64_t p50 = 0, p95 = 0, p99 = 0, max = 0;
    /** The "shards" metrics group (runs with --shards N --host-stats). */
    JsonValue shards;

    std::string label() const { return app + " / " + scheme; }

    double
    share(std::size_t phase) const
    {
        return phase < latDemandPhaseCycles.size()
                   ? pct(latDemandPhaseCycles[phase], latDemandCycles)
                   : 0.0;
    }
};

std::uint64_t
u64(const JsonValue &value)
{
    return value.asU64().value_or(0);
}

/** One SimResults::toJson object as a Run; nullopt (and why in
 *  @p error) when a member is mistyped or attribution is partial. */
std::optional<Run>
readRun(const JsonValue &result, const std::string &path,
        std::string &error)
{
    auto sim = idyll::SimResults::fromJson(result, &error);
    if (!sim)
        return std::nullopt;
    Run run(std::move(*sim));
    if ((run.latDemandCount || run.latInvalCount) &&
        (run.latDemandPhaseCycles.size() != idyll::kNumLatencyPhases ||
         run.latInvalPhaseCycles.size() != idyll::kNumLatencyPhases)) {
        error = run.label() + ": attribution without " +
                std::to_string(idyll::kNumLatencyPhases) +
                " phase entries";
        return std::nullopt;
    }
    run.file = path;
    // The demand end-to-end distribution.
    const JsonValue &total = result["latency"]["demand"]["total"];
    run.p50 = u64(total["p50"]);
    run.p95 = u64(total["p95"]);
    run.p99 = u64(total["p99"]);
    run.max = u64(total["max"]);
    run.shards = result["shardTelemetry"];
    return run;
}

/**
 * Every run in @p path: the file is one results object or a suite
 * document with a "results" array. Prints why and returns nothing
 * when the file cannot be read, is not valid JSON or holds a
 * malformed results object.
 */
std::vector<Run>
parseRuns(const std::string &path)
{
    std::vector<Run> runs;
    std::ifstream in(path);
    if (!in) {
        std::cerr << "error: cannot open '" << path << "'\n";
        return runs;
    }
    std::stringstream text;
    text << in.rdbuf();
    idyll::JsonError error;
    const auto root = idyll::parseJson(text.str(), &error);
    if (!root) {
        std::cerr << "error: " << path << ": byte " << error.offset
                  << ": " << error.message << "\n";
        return runs;
    }
    // An object that names no app and scheme is not a run.
    auto add = [&](const JsonValue &result) {
        std::string why;
        auto run = readRun(result, path, why);
        if (!run)
            std::cerr << "error: " << path << ": " << why << "\n";
        else if (!run->app.empty() && !run->scheme.empty())
            runs.push_back(std::move(*run));
        return run.has_value();
    };
    if (const JsonValue *results = root->find("results")) {
        for (const JsonValue &result : results->items())
            if (!add(result))
                return {};
    } else if (!add(*root)) {
        return {};
    }
    return runs;
}

const char *
phaseName(std::size_t p)
{
    return idyll::latencyPhaseName(static_cast<LatencyPhase>(p));
}

/** The "== APP / SCHEME ====" heading over one run's table. */
void
banner(const Run &run)
{
    const std::string label = run.label();
    std::cout << "== " << label << " "
              << std::string(label.size() < 50 ? 50 - label.size() : 1,
                             '=')
              << "\n";
}

void
printRun(const Run &run)
{
    banner(run);
    if (!run.latDemandCount) {
        std::cout << "  (no latency attribution — run with --latency)\n";
        return;
    }
    const auto &phases = run.latDemandPhaseCycles;
    std::cout << std::fixed << std::setprecision(1);
    std::cout << "  demand requests " << run.latDemandCount << ", avg "
              << avg(run.latDemandCycles, run.latDemandCount) << " cy, p50 "
              << run.p50 << ", p95 " << run.p95 << ", p99 " << run.p99
              << ", max " << run.max << "\n";
    std::cout << "  phase             cycles            share\n";
    for (std::size_t p = 0; p < phases.size(); ++p) {
        if (!phases[p])
            continue;
        std::cout << "  " << std::left << std::setw(16) << phaseName(p)
                  << std::right << std::setw(14) << phases[p]
                  << std::setw(10) << run.share(p) << "%\n";
    }
    const std::size_t dom = largest(phases);
    std::cout << "  bottleneck: " << phaseName(dom) << ", "
              << run.share(dom) << "% of miss latency\n";
    if (run.latInvalCount) {
        std::cout << "  invalidation rounds " << run.latInvalCount
                  << ", avg " << avg(run.latInvalCycles, run.latInvalCount)
                  << " cy";
        const std::size_t idom = largest(run.latInvalPhaseCycles);
        if (run.latInvalCycles) {
            std::cout << " (largest phase: " << phaseName(idom) << ", "
                      << pct(run.latInvalPhaseCycles[idom],
                             run.latInvalCycles)
                      << "%)";
        }
        std::cout << "\n";
    }
}

/** Per-shard balance/stall table (idyll_report --shards). */
void
printShards(const Run &run)
{
    banner(run);
    const auto &shards = run.shards["children"].members();
    if (shards.empty()) {
        std::cout << "  (no shard telemetry — run with --shards N "
                     "--host-stats)\n";
        return;
    }
    // Each child is one ShardStats group: a "shard" label and its
    // counters.
    auto counter = [](const JsonValue::Member &shard, const char *name) {
        return u64(shard.value["counters"][name]);
    };
    auto id = [](const JsonValue::Member &shard) {
        return std::string(
            shard.value["labels"]["shard"].asString().value_or(""));
    };
    std::uint64_t total = 0, stallTotal = 0;
    for (const JsonValue::Member &shard : shards) {
        total += counter(shard, "executed");
        stallTotal += counter(shard, "stallWindows");
    }
    std::cout << std::fixed << std::setprecision(1);
    std::cout << "  " << shards.size() << " shards, "
              << u64(run.shards["counters"]["windows"])
              << " windows (lookahead "
              << run.shards["labels"]["lookahead"].asString().value_or("")
              << " cy), imbalance " << run.shardImbalancePct
              << "%, stalled slots " << run.lookaheadStallPct << "%\n";
    std::cout << "  shard      executed   share   stallWin    "
                 "depIn      depOut     lastTick\n";
    for (const JsonValue::Member &shard : shards) {
        const std::uint64_t executed = counter(shard, "executed");
        std::cout << "  " << std::left << std::setw(7)
                  << (id(shard) == "0" ? "0:host" : id(shard))
                  << std::right << std::setw(12) << executed
                  << std::setw(7) << pct(executed, total) << "%"
                  << std::setw(11) << counter(shard, "stallWindows")
                  << std::setw(11) << counter(shard, "depositsIn")
                  << std::setw(12) << counter(shard, "depositsOut")
                  << std::setw(13) << counter(shard, "lastTick") << "\n";
    }
    // The busiest shard bounds the parallel speedup; name it.
    const JsonValue::Member *busiest = &shards[0];
    for (const JsonValue::Member &shard : shards)
        if (counter(shard, "executed") > counter(*busiest, "executed"))
            busiest = &shard;
    std::cout << "  critical shard: " << id(*busiest) << " ("
              << pct(counter(*busiest, "executed"), total)
              << "% of events";
    if (stallTotal)
        std::cout << "; " << stallTotal << " stalled shard-windows";
    std::cout << ")\n";
}

/** Exact integer sum check; returns false (and explains) on failure. */
bool
checkRun(const Run &run)
{
    if (!run.latDemandCount) {
        std::cerr << "FAIL " << run.label()
                  << ": no latency attribution data\n";
        return false;
    }
    auto sum = [](const std::vector<std::uint64_t> &phases) {
        return std::accumulate(phases.begin(), phases.end(),
                               std::uint64_t{0});
    };
    const std::uint64_t dsum = sum(run.latDemandPhaseCycles);
    const std::uint64_t isum = sum(run.latInvalPhaseCycles);
    if (dsum != run.latDemandCycles) {
        std::cerr << "FAIL " << run.label() << ": demand phases sum to "
                  << dsum << " but end-to-end total is "
                  << run.latDemandCycles << "\n";
        return false;
    }
    if (isum != run.latInvalCycles) {
        std::cerr << "FAIL " << run.label()
                  << ": invalidation phases sum to " << isum
                  << " but end-to-end total is " << run.latInvalCycles
                  << "\n";
        return false;
    }
    std::cout << "OK " << run.label() << ": " << run.latDemandCount
              << " demand + " << run.latInvalCount
              << " invalidation requests, phases sum exactly\n";
    return true;
}

void
diffRuns(const Run &a, const Run &b)
{
    std::cout << "-- " << a.label() << " (A: " << a.file << ")  vs  "
              << b.label() << " (B: " << b.file << ") --\n";
    std::cout << std::fixed << std::setprecision(1);
    const double avgA = avg(a.latDemandCycles, a.latDemandCount);
    const double avgB = avg(b.latDemandCycles, b.latDemandCount);
    std::cout << "  avg demand miss latency: " << avgA << " -> " << avgB
              << " cy";
    if (avgA > 0.0)
        std::cout << " (" << std::showpos
                  << 100.0 * (avgB - avgA) / avgA << std::noshowpos
                  << "%)";
    std::cout << "\n  phase             share A   share B     delta\n";
    const std::size_t n = std::max(a.latDemandPhaseCycles.size(),
                                   b.latDemandPhaseCycles.size());
    for (std::size_t p = 0; p < n; ++p) {
        const double sa = a.share(p), sb = b.share(p);
        if (sa == 0.0 && sb == 0.0)
            continue;
        std::cout << "  " << std::left << std::setw(16) << phaseName(p)
                  << std::right << std::setw(8) << sa << "%"
                  << std::setw(9) << sb << "%" << std::setw(9)
                  << std::showpos << sb - sa << std::noshowpos
                  << "pp\n";
    }
}

int
usage()
{
    std::cerr
        << "usage: idyll_report FILE...            attribution tables\n"
        << "       idyll_report --diff A B         phase-by-phase diff\n"
        << "       idyll_report --check FILE...    verify span sums\n"
        << "       idyll_report --shards FILE...   per-shard balance/"
           "stall table\n"
        << "FILEs are results JSON from idyll_sim --json or sweep "
           "suites.\n"
        << "--shards needs runs made with idyll_sim --shards N "
           "--host-stats.\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    bool check = false, diff = false, shards = false;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--check")
            check = true;
        else if (arg == "--diff")
            diff = true;
        else if (arg == "--shards")
            shards = true;
        else if (arg == "--help")
            return usage();
        else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "error: unknown flag '" << arg << "'\n";
            return usage();
        } else
            files.push_back(arg);
    }
    if (files.empty() || (diff && files.size() != 2))
        return usage();

    if (diff) {
        const auto runsA = parseRuns(files[0]);
        const auto runsB = parseRuns(files[1]);
        if (runsA.empty() || runsB.empty()) {
            std::cerr << "error: no results parsed\n";
            return 1;
        }
        if (runsA.size() == 1 && runsB.size() == 1) {
            diffRuns(runsA[0], runsB[0]);
            return 0;
        }
        // Multi-run files: pair by (app, scheme).
        bool any = false;
        for (const Run &a : runsA) {
            for (const Run &b : runsB) {
                if (a.app == b.app && a.scheme == b.scheme) {
                    diffRuns(a, b);
                    any = true;
                }
            }
        }
        if (!any) {
            std::cerr << "error: no (app, scheme) pairs in common\n";
            return 1;
        }
        return 0;
    }

    bool allOk = true;
    std::size_t total = 0;
    for (const std::string &file : files) {
        const auto runs = parseRuns(file); // empty: unreadable or bad
        allOk = !runs.empty() && allOk;
        total += runs.size();
        for (const Run &run : runs) {
            if (check)
                allOk = checkRun(run) && allOk;
            else if (shards)
                printShards(run);
            else
                printRun(run);
        }
    }
    if (total == 0) {
        std::cerr << "error: no results parsed\n";
        return 1;
    }
    return allOk ? 0 : 1;
}
