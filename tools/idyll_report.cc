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
 * The parser is a line scanner over the fixed-format JSON our own
 * serializers emit (one result object per line), not a general JSON
 * reader — the same discipline as tools/idyll_trace.cc.
 */

#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/latency.hh"

namespace
{

using idyll::kNumLatencyPhases;
using idyll::LatencyPhase;

/** Extract `"key": <number>` (whitespace after the colon optional). */
bool
findNumber(const std::string &text, const std::string &key,
           std::uint64_t &out, std::size_t from = 0)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = text.find(needle, from);
    if (pos == std::string::npos)
        return false;
    out = std::strtoull(text.c_str() + pos + needle.size(), nullptr, 10);
    return true;
}

/** Extract `"key": <double>`. */
bool
findDouble(const std::string &text, const std::string &key,
           double &out, std::size_t from = 0)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = text.find(needle, from);
    if (pos == std::string::npos)
        return false;
    out = std::strtod(text.c_str() + pos + needle.size(), nullptr);
    return true;
}

/** Extract `"key": "value"`. */
bool
findString(const std::string &text, const std::string &key,
           std::string &out)
{
    const std::string needle = "\"" + key + "\":";
    auto pos = text.find(needle);
    if (pos == std::string::npos)
        return false;
    pos += needle.size();
    while (pos < text.size() && text[pos] == ' ')
        ++pos;
    if (pos >= text.size() || text[pos] != '"')
        return false;
    const auto end = text.find('"', pos + 1);
    if (end == std::string::npos)
        return false;
    out = text.substr(pos + 1, end - pos - 1);
    return true;
}

/** Extract `"key": [n, n, ...]` into @p out. */
bool
findArray(const std::string &text, const std::string &key,
          std::vector<std::uint64_t> &out)
{
    const std::string needle = "\"" + key + "\":";
    auto pos = text.find(needle);
    if (pos == std::string::npos)
        return false;
    pos = text.find('[', pos + needle.size());
    if (pos == std::string::npos)
        return false;
    const auto end = text.find(']', pos);
    ++pos;
    out.clear();
    while (pos < end) {
        char *stop = nullptr;
        out.push_back(std::strtoull(text.c_str() + pos, &stop, 10));
        pos = static_cast<std::size_t>(stop - text.c_str());
        while (pos < end && (text[pos] == ',' || text[pos] == ' '))
            ++pos;
    }
    return true;
}

/** One shard's heartbeat row from the shardTelemetry section. */
struct ShardRow
{
    std::uint64_t shard = 0;
    std::uint64_t lastTick = 0;
    std::uint64_t executed = 0;
    std::uint64_t stallWindows = 0;
    std::uint64_t depositsIn = 0;
    std::uint64_t depositsOut = 0;
};

/** One run's attribution numbers as parsed from a results line. */
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
        return demandCycles && phase < demandPhases.size()
                   ? 100.0 * static_cast<double>(demandPhases[phase]) /
                         static_cast<double>(demandCycles)
                   : 0.0;
    }
};

/** Parse every result object (one per line) out of @p path. */
std::vector<Run>
parseRuns(const std::string &path)
{
    std::vector<Run> runs;
    std::ifstream in(path);
    if (!in) {
        std::cerr << "error: cannot open '" << path << "'\n";
        return runs;
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("\"app\":") == std::string::npos ||
            line.find("\"scheme\":") == std::string::npos)
            continue;
        Run run;
        run.file = path;
        findString(line, "app", run.app);
        findString(line, "scheme", run.scheme);
        run.hasLatency =
            findNumber(line, "latDemandCount", run.demandCount);
        findNumber(line, "latDemandCycles", run.demandCycles);
        findNumber(line, "latInvalCount", run.invalCount);
        findNumber(line, "latInvalCycles", run.invalCycles);
        findArray(line, "latDemandPhaseCycles", run.demandPhases);
        findArray(line, "latInvalPhaseCycles", run.invalPhases);
        // First "total" histogram after the "latency" key is the
        // demand end-to-end distribution (fixed serializer order).
        const auto lat = line.find("\"latency\":");
        if (lat != std::string::npos) {
            const auto tot = line.find("\"total\":", lat);
            if (tot != std::string::npos) {
                findNumber(line, "p50", run.p50, tot);
                findNumber(line, "p95", run.p95, tot);
                findNumber(line, "p99", run.p99, tot);
                findNumber(line, "max", run.max, tot);
            }
        }
        // Shard telemetry section (sharded runs with --host-stats).
        const auto tel = line.find("\"shardTelemetry\":");
        if (tel != std::string::npos) {
            run.hasShards = true;
            findDouble(line, "shardImbalancePct", run.imbalancePct);
            findDouble(line, "lookaheadStallPct", run.stallPct);
            findNumber(line, "windows", run.windows, tel);
            findNumber(line, "lookahead", run.lookahead, tel);
            // Each per-shard object starts with its "shard" key.
            auto pos = line.find("\"shard\":", tel);
            while (pos != std::string::npos) {
                ShardRow row;
                findNumber(line, "shard", row.shard, pos);
                findNumber(line, "lastTick", row.lastTick, pos);
                findNumber(line, "executed", row.executed, pos);
                findNumber(line, "stallWindows", row.stallWindows, pos);
                findNumber(line, "depositsIn", row.depositsIn, pos);
                findNumber(line, "depositsOut", row.depositsOut, pos);
                run.shardRows.push_back(row);
                pos = line.find("\"shard\":", pos + 1);
            }
        }
        runs.push_back(std::move(run));
    }
    return runs;
}

const char *
phaseName(std::size_t p)
{
    return idyll::latencyPhaseName(static_cast<LatencyPhase>(p));
}

/** Dominant demand phase (ties resolved to the lower enum value). */
std::size_t
bottleneck(const Run &run)
{
    std::size_t best = 0;
    for (std::size_t p = 1; p < run.demandPhases.size(); ++p)
        if (run.demandPhases[p] > run.demandPhases[best])
            best = p;
    return best;
}

void
printRun(const Run &run)
{
    std::cout << "== " << run.label() << " "
              << std::string(
                     run.label().size() < 50 ? 50 - run.label().size()
                                             : 1,
                     '=')
              << "\n";
    if (!run.hasLatency || !run.demandCount) {
        std::cout << "  (no latency attribution — run with --latency)\n";
        return;
    }
    std::cout << std::fixed << std::setprecision(1);
    std::cout << "  demand requests " << run.demandCount << ", avg "
              << static_cast<double>(run.demandCycles) /
                     static_cast<double>(run.demandCount)
              << " cy, p50 " << run.p50 << ", p95 " << run.p95
              << ", p99 " << run.p99 << ", max " << run.max << "\n";
    std::cout << "  phase             cycles            share\n";
    for (std::size_t p = 0; p < run.demandPhases.size(); ++p) {
        if (!run.demandPhases[p])
            continue;
        std::cout << "  " << std::left << std::setw(16) << phaseName(p)
                  << std::right << std::setw(14) << run.demandPhases[p]
                  << std::setw(10) << run.share(p) << "%\n";
    }
    const std::size_t dom = bottleneck(run);
    std::cout << "  bottleneck: " << phaseName(dom) << ", "
              << run.share(dom) << "% of miss latency\n";
    if (run.invalCount) {
        std::cout << "  invalidation rounds " << run.invalCount
                  << ", avg "
                  << static_cast<double>(run.invalCycles) /
                         static_cast<double>(run.invalCount)
                  << " cy";
        std::size_t idom = 0;
        for (std::size_t p = 1; p < run.invalPhases.size(); ++p)
            if (run.invalPhases[p] > run.invalPhases[idom])
                idom = p;
        if (run.invalCycles) {
            std::cout << " (largest phase: " << phaseName(idom) << ", "
                      << 100.0 *
                             static_cast<double>(run.invalPhases[idom]) /
                             static_cast<double>(run.invalCycles)
                      << "%)";
        }
        std::cout << "\n";
    }
}

/** Per-shard balance/stall table (idyll_report --shards). */
void
printShards(const Run &run)
{
    std::cout << "== " << run.label() << " "
              << std::string(
                     run.label().size() < 50 ? 50 - run.label().size()
                                             : 1,
                     '=')
              << "\n";
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
        const double share =
            total ? 100.0 * static_cast<double>(row.executed) /
                        static_cast<double>(total)
                  : 0.0;
        std::cout << "  " << std::left << std::setw(7)
                  << (row.shard == 0 ? "0:host"
                                     : std::to_string(row.shard))
                  << std::right << std::setw(12) << row.executed
                  << std::setw(7) << share << "%" << std::setw(11)
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
              << (total ? 100.0 *
                              static_cast<double>(busiest->executed) /
                              static_cast<double>(total)
                        : 0.0)
              << "% of events";
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
    std::uint64_t dsum = 0, isum = 0;
    for (const auto c : run.demandPhases)
        dsum += c;
    for (const auto c : run.invalPhases)
        isum += c;
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
    const double avgA = a.demandCount
                            ? static_cast<double>(a.demandCycles) /
                                  static_cast<double>(a.demandCount)
                            : 0.0;
    const double avgB = b.demandCount
                            ? static_cast<double>(b.demandCycles) /
                                  static_cast<double>(b.demandCount)
                            : 0.0;
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
        const auto runs = parseRuns(file);
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
