/**
 * @file
 * perfbench — the repository benchmark's binary.
 *
 *   perfbench --workload fig11-grid --seed 1 --seconds 20 --trace 0
 *
 * Prints a provenance line, one line per recorded digest, and as its
 * last line one JSON object: {"correct", "attempted", "failed",
 * "values"}. --trace 0 runs the timed pass (end-to-end values),
 * --trace 1 the traced pass (per-layer values). perfbench/run.py
 * builds this binary and attaches the units from BENCHMARK.json.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "report.hh"
#include "workloads.hh"

namespace
{

using perfbench::jsonString;

constexpr char kUsage[] =
    "usage: perfbench --workload fig11-grid|serve-obs|shard32 --seed N\n"
    "                 --seconds S --trace 0|1 [--git-sha SHA]\n";

/** The first "model name" line of /proc/cpuinfo, or "unknown". */
std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** Optimized builds only: Debug timings compare nothing. */
bool
optimizedBuild()
{
#if defined(NDEBUG) && defined(__OPTIMIZE__)
    return std::string(PERFBENCH_BUILD_TYPE) != "Debug";
#else
    return false;
#endif
}

std::string
provenance(const perfbench::RunOptions &opts, const std::string &gitSha)
{
    return std::string("{\"provenance\":{") +
           "\"workload\":" + jsonString(opts.workload) +
           ",\"seed\":" + std::to_string(opts.seed) +
           ",\"trace\":" + (opts.trace ? "1" : "0") +
           ",\"nproc\":" +
           std::to_string(std::thread::hardware_concurrency()) +
           ",\"cpu\":" + jsonString(cpuModel()) +
           ",\"compiler\":" + jsonString(PERFBENCH_COMPILER) +
           ",\"build_type\":" + jsonString(PERFBENCH_BUILD_TYPE) +
           ",\"IDYLL_TRACE\":" + jsonString(PERFBENCH_TRACE_GATE) +
           ",\"IDYLL_LATENCY\":" + jsonString(PERFBENCH_LATENCY_GATE) +
           ",\"git_sha\":" + jsonString(gitSha) + "}}";
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions opts;
    std::string gitSha = "unknown";
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            std::cerr << "error: " << arg << " needs a value\n" << kUsage;
            return 2;
        }
        const std::string value = argv[++i];
        try {
            if (arg == "--workload") {
                opts.workload = value;
                haveWorkload = true;
            } else if (arg == "--seed") {
                opts.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                opts.seconds = std::stod(value);
            } else if (arg == "--trace") {
                opts.trace = std::stoi(value) != 0;
            } else if (arg == "--git-sha") {
                gitSha = value;
            } else {
                std::cerr << "error: unknown flag " << arg << "\n" << kUsage;
                return 2;
            }
        } catch (const std::exception &) {
            std::cerr << "error: bad value for " << arg << "\n" << kUsage;
            return 2;
        }
    }
    if (!haveWorkload || !(opts.seconds > 0.0)) {
        std::cerr << kUsage;
        return 2;
    }
    if (!optimizedBuild()) {
        std::cerr << "error: refusing to benchmark a " << PERFBENCH_BUILD_TYPE
                  << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 3;
    }

    try {
        const perfbench::Outcome out = perfbench::runWorkload(opts);
        for (const std::string &note : out.notes)
            std::cerr << "check failed: " << note << "\n";
        std::cout << provenance(opts, gitSha) << "\n";
        for (const std::string &record : out.records)
            std::cout << record << "\n";
        const bool correct = out.correct && out.failed == 0;
        std::cout << "{\"correct\":" << (correct ? "true" : "false")
                  << ",\"attempted\":" << out.attempted
                  << ",\"failed\":" << out.failed
                  << ",\"values\":" << out.values.toJson() << "}"
                  << std::endl;
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
