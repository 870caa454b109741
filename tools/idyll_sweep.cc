/**
 * @file
 * idyll_sweep — the experiment driver: run any registered figure,
 * table or ablation (harness/sweeps.hh) on the parallel runner, write
 * results/<figure>.json in the schema README.md documents and print
 * the figure's table.
 *
 *   idyll_sweep --figure fig11 --jobs 4
 *   idyll_sweep --figure all --out results --scale 0.05
 *
 * IDYLL_BENCH_SCALE and IDYLL_JOBS are honored like everywhere else
 * in the harness; --scale / --jobs win over both.
 */

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "harness/cli.hh"
#include "harness/parallel.hh"
#include "harness/runner.hh"
#include "harness/serve.hh"
#include "harness/sweeps.hh"
#include "harness/tables.hh"

namespace
{

const char *kUsage =
    "usage: idyll_sweep [--figure NAME|all] [--serve NAME] [--out DIR]\n"
    "                   [--scale F] [--jobs N] [--list] [--help]\n"
    "  --figure NAME   sweep to run (repeatable; 'all' = every sweep)\n"
    "  --serve NAME    serve preset to run (repeatable; writes\n"
    "                  BENCH_serve.json, or BENCH_serve_<name>.json\n"
    "                  when several presets are requested)\n"
    "  --out DIR       output directory (default: results)\n"
    "  --scale F       per-CU work multiplier\n"
    "                  (default: IDYLL_BENCH_SCALE or 1.0)\n"
    "  --jobs N        worker threads (default: IDYLL_JOBS, then\n"
    "                  hardware concurrency)\n"
    "  --list          list sweeps and serve presets, then exit\n";

} // namespace

int
main(int argc, char **argv)
{
    using namespace idyll;

    std::vector<std::string> figures;
    std::vector<std::string> serves;
    std::string outDir = "results";
    double scale = benchScale();
    unsigned jobs = 0;

    const std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= args.size()) {
                std::cerr << "error: " << flag << " needs a value\n"
                          << kUsage;
                std::exit(2);
            }
            return args[++i];
        };
        if (arg == "--help") {
            std::cout << kUsage;
            return 0;
        } else if (arg == "--list") {
            for (const SweepSpec &spec : allSweeps()) {
                std::cout << spec.name << ": " << spec.description
                          << " (" << spec.apps.size() << " apps x "
                          << spec.points.size() << " points)\n";
            }
            for (const ServeSpec &spec : allServeSpecs()) {
                std::cout << "serve:" << spec.name << ": "
                          << spec.description << "\n";
            }
            return 0;
        } else if (arg == "--figure") {
            figures.push_back(value("--figure"));
        } else if (arg == "--serve") {
            serves.push_back(value("--serve"));
        } else if (arg == "--out") {
            outDir = value("--out");
        } else if (arg == "--scale") {
            if (!parseDouble(value("--scale"), scale) || scale <= 0.0) {
                std::cerr << "error: --scale needs a positive number\n";
                return 2;
            }
        } else if (arg == "--jobs") {
            std::uint64_t n = 0;
            if (!parseUnsigned(value("--jobs"), n) ||
                n > std::numeric_limits<unsigned>::max()) {
                std::cerr << "error: --jobs needs a non-negative "
                             "integer\n";
                return 2;
            }
            jobs = static_cast<unsigned>(n);
        } else {
            std::cerr << "error: unknown argument '" << arg << "'\n"
                      << kUsage;
            return 2;
        }
    }

    if (figures.empty() && serves.empty()) {
        std::cerr << "error: no --figure or --serve given "
                     "(try --list)\n"
                  << kUsage;
        return 2;
    }
    if (figures.size() == 1 && figures.front() == "all")
        figures = sweepNames();

    std::vector<SweepSpec> specs;
    for (const std::string &name : figures) {
        auto spec = sweepByName(name);
        if (!spec) {
            std::cerr << "error: unknown sweep '" << name
                      << "' (try --list)\n";
            return 2;
        }
        specs.push_back(std::move(*spec));
    }
    std::vector<ServeSpec> serveSpecs;
    for (const std::string &name : serves) {
        auto spec = serveSpecByName(name);
        if (!spec) {
            std::cerr << "error: unknown serve preset '" << name
                      << "' (try --list)\n";
            return 2;
        }
        serveSpecs.push_back(std::move(*spec));
    }

    std::error_code ec;
    std::filesystem::create_directories(outDir, ec);
    if (ec) {
        std::cerr << "error: cannot create output directory '"
                  << outDir << "': " << ec.message() << "\n";
        return 1;
    }
    const ParallelRunner runner(jobs);
    std::cout << "idyll_sweep: " << specs.size() << " sweep(s), scale "
              << scale << ", " << runner.jobs() << " worker(s)\n";

    for (const SweepSpec &spec : specs) {
        const auto start = std::chrono::steady_clock::now();
        const auto grid =
            runner.runGrid(spec.apps, spec.points, scale, spec.transform);
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start);

        const auto path =
            std::filesystem::path(outDir) / (spec.name + ".json");
        std::ofstream os(path);
        if (!os) {
            std::cerr << "error: cannot write " << path << "\n";
            return 1;
        }
        writeSuiteJson(os, spec.name, scale, spec.apps, spec.schemes,
                       grid);
        std::cout << "  " << spec.name << ": " << spec.apps.size()
                  << " apps x " << spec.points.size() << " points -> "
                  << path.string() << " (" << elapsed.count()
                  << " ms)\n";
        printSweepTable(std::cout, spec, grid);
    }

    for (const ServeSpec &spec : serveSpecs) {
        const auto start = std::chrono::steady_clock::now();
        const ServeReport report = runServeSpec(spec);
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start);

        const std::string file =
            serveSpecs.size() == 1
                ? "BENCH_serve.json"
                : "BENCH_serve_" + spec.name + ".json";
        const auto path = std::filesystem::path(outDir) / file;
        std::ofstream os(path);
        if (!os) {
            std::cerr << "error: cannot write " << path << "\n";
            return 1;
        }
        os << report.toJson() << "\n";
        std::cout << "  serve:" << spec.name << ": "
                  << report.windows.size() << " windows, steady p99 "
                  << report.steadyP99 << " cy, tail amp "
                  << report.tailAmplification << "x -> "
                  << path.string() << " (" << elapsed.count()
                  << " ms)\n";
    }
    return 0;
}
