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
 * or a suite document whose "results" array holds them. A file that
 * is not valid JSON is an error naming the byte offset.
 */

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

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

/** One shard's heartbeat row from the shardTelemetry section. */
struct ShardRow
{
    std::uint64_t shard = 0, lastTick = 0, executed = 0;
    std::uint64_t stallWindows = 0, depositsIn = 0, depositsOut = 0;
};

/** One results object's attribution and shard numbers. */
struct Run
{
    std::string app, scheme, file;
    std::uint64_t demandCount = 0, demandCycles = 0;
    std::uint64_t invalCount = 0, invalCycles = 0;
    std::vector<std::uint64_t> demandPhases, invalPhases;
    // Demand end-to-end histogram summary (from the "latency" blob).
    std::uint64_t p50 = 0, p95 = 0, p99 = 0, max = 0;
    bool hasLatency = false;
    // Shard telemetry (runs with --shards N --host-stats).
    bool hasShards = false;
    double imbalancePct = 0.0, stallPct = 0.0;
    std::uint64_t windows = 0, lookahead = 0;
    std::vector<ShardRow> shardRows;

    std::string label() const { return app + " / " + scheme; }

    double
    share(std::size_t phase) const
    {
        return phase < demandPhases.size()
                   ? pct(demandPhases[phase], demandCycles)
                   : 0.0;
    }
};

std::uint64_t
u64(const JsonValue &value)
{
    return value.asU64().value_or(0);
}

/** One SimResults::toJson object as a Run. */
Run
readRun(const JsonValue &result, const std::string &path)
{
    Run run;
    run.file = path;
    run.app = result["app"].asString().value_or("");
    run.scheme = result["scheme"].asString().value_or("");
    run.hasLatency = result.find("latDemandCount") != nullptr;
    run.demandCount = u64(result["latDemandCount"]);
    run.demandCycles = u64(result["latDemandCycles"]);
    run.invalCount = u64(result["latInvalCount"]);
    run.invalCycles = u64(result["latInvalCycles"]);
    for (const JsonValue &cycles : result["latDemandPhaseCycles"].items())
        run.demandPhases.push_back(u64(cycles));
    for (const JsonValue &cycles : result["latInvalPhaseCycles"].items())
        run.invalPhases.push_back(u64(cycles));
    // The demand end-to-end distribution.
    const JsonValue &total = result["latency"]["demand"]["total"];
    run.p50 = u64(total["p50"]);
    run.p95 = u64(total["p95"]);
    run.p99 = u64(total["p99"]);
    run.max = u64(total["max"]);
    // Shard telemetry section (sharded runs with --host-stats).
    if (const JsonValue *tel = result.find("shardTelemetry")) {
        run.hasShards = true;
        run.imbalancePct =
            result["shardImbalancePct"].asDouble().value_or(0.0);
        run.stallPct =
            result["lookaheadStallPct"].asDouble().value_or(0.0);
        run.windows = u64((*tel)["windows"]);
        run.lookahead = u64((*tel)["lookahead"]);
        for (const JsonValue &row : (*tel)["perShard"].items())
            run.shardRows.push_back(
                {u64(row["shard"]), u64(row["lastTick"]),
                 u64(row["executed"]), u64(row["stallWindows"]),
                 u64(row["depositsIn"]), u64(row["depositsOut"])});
    }
    return run;
}

/**
 * Every run in @p path: the file is one results object or a suite
 * document with a "results" array. Prints why and returns nothing
 * when the file cannot be read or is not valid JSON.
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
    auto add = [&](const JsonValue &result) {
        if (result.find("app") && result.find("scheme"))
            runs.push_back(readRun(result, path));
    };
    if (const JsonValue *results = root->find("results")) {
        for (const JsonValue &result : results->items())
            add(result);
    } else {
        add(*root);
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
    if (!run.hasLatency || !run.demandCount) {
        std::cout << "  (no latency attribution — run with --latency)\n";
        return;
    }
    std::cout << std::fixed << std::setprecision(1);
    std::cout << "  demand requests " << run.demandCount << ", avg "
              << avg(run.demandCycles, run.demandCount) << " cy, p50 "
              << run.p50 << ", p95 " << run.p95 << ", p99 " << run.p99
              << ", max " << run.max << "\n";
    std::cout << "  phase             cycles            share\n";
    for (std::size_t p = 0; p < run.demandPhases.size(); ++p) {
        if (!run.demandPhases[p])
            continue;
        std::cout << "  " << std::left << std::setw(16) << phaseName(p)
                  << std::right << std::setw(14) << run.demandPhases[p]
                  << std::setw(10) << run.share(p) << "%\n";
    }
    const std::size_t dom = largest(run.demandPhases);
    std::cout << "  bottleneck: " << phaseName(dom) << ", "
              << run.share(dom) << "% of miss latency\n";
    if (run.invalCount) {
        std::cout << "  invalidation rounds " << run.invalCount
                  << ", avg " << avg(run.invalCycles, run.invalCount)
                  << " cy";
        const std::size_t idom = largest(run.invalPhases);
        if (run.invalCycles) {
            std::cout << " (largest phase: " << phaseName(idom) << ", "
                      << pct(run.invalPhases[idom], run.invalCycles)
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
    if (!run.hasShards || run.shardRows.empty()) {
        std::cout << "  (no shard telemetry — run with --shards N "
                     "--host-stats)\n";
        return;
    }
    std::uint64_t total = 0, stallTotal = 0;
    for (const ShardRow &row : run.shardRows) {
        total += row.executed;
        stallTotal += row.stallWindows;
    }
    std::cout << std::fixed << std::setprecision(1);
    std::cout << "  " << run.shardRows.size() << " shards, "
              << run.windows << " windows (lookahead " << run.lookahead
              << " cy), imbalance " << run.imbalancePct
              << "%, stalled slots " << run.stallPct << "%\n";
    std::cout << "  shard      executed   share   stallWin    "
                 "depIn      depOut     lastTick\n";
    for (const ShardRow &row : run.shardRows) {
        std::cout << "  " << std::left << std::setw(7)
                  << (row.shard == 0 ? "0:host"
                                     : std::to_string(row.shard))
                  << std::right << std::setw(12) << row.executed
                  << std::setw(7) << pct(row.executed, total) << "%"
                  << std::setw(11)
                  << row.stallWindows << std::setw(11)
                  << row.depositsIn << std::setw(12) << row.depositsOut
                  << std::setw(13) << row.lastTick << "\n";
    }
    // The busiest shard bounds the parallel speedup; name it.
    const ShardRow *busiest = &run.shardRows[0];
    for (const ShardRow &row : run.shardRows)
        if (row.executed > busiest->executed)
            busiest = &row;
    std::cout << "  critical shard: " << busiest->shard << " ("
              << pct(busiest->executed, total) << "% of events";
    if (stallTotal)
        std::cout << "; " << stallTotal << " stalled shard-windows";
    std::cout << ")\n";
}

/** Exact integer sum check; returns false (and explains) on failure. */
bool
checkRun(const Run &run)
{
    if (!run.hasLatency || !run.demandCount) {
        std::cerr << "FAIL " << run.label()
                  << ": no latency attribution data\n";
        return false;
    }
    const std::uint64_t dsum = std::accumulate(
        run.demandPhases.begin(), run.demandPhases.end(), std::uint64_t{0});
    const std::uint64_t isum = std::accumulate(
        run.invalPhases.begin(), run.invalPhases.end(), std::uint64_t{0});
    if (dsum != run.demandCycles) {
        std::cerr << "FAIL " << run.label() << ": demand phases sum to "
                  << dsum << " but end-to-end total is "
                  << run.demandCycles << "\n";
        return false;
    }
    if (isum != run.invalCycles) {
        std::cerr << "FAIL " << run.label()
                  << ": invalidation phases sum to " << isum
                  << " but end-to-end total is " << run.invalCycles
                  << "\n";
        return false;
    }
    std::cout << "OK " << run.label() << ": " << run.demandCount
              << " demand + " << run.invalCount
              << " invalidation requests, phases sum exactly\n";
    return true;
}

void
diffRuns(const Run &a, const Run &b)
{
    std::cout << "-- " << a.label() << " (A: " << a.file << ")  vs  "
              << b.label() << " (B: " << b.file << ") --\n";
    std::cout << std::fixed << std::setprecision(1);
    const double avgA = avg(a.demandCycles, a.demandCount);
    const double avgB = avg(b.demandCycles, b.demandCount);
    std::cout << "  avg demand miss latency: " << avgA << " -> " << avgB
              << " cy";
    if (avgA > 0.0)
        std::cout << " (" << std::showpos
                  << 100.0 * (avgB - avgA) / avgA << std::noshowpos
                  << "%)";
    std::cout << "\n  phase             share A   share B     delta\n";
    const std::size_t n =
        std::max(a.demandPhases.size(), b.demandPhases.size());
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
