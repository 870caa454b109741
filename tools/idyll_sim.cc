/**
 * @file
 * idyll_sim — the command-line driver: run any workload under any
 * translation-coherence scheme on any machine shape, print the
 * headline numbers (and, with --stats, the mechanism-level detail).
 *
 *   idyll_sim --app PR --scheme idyll --gpus 8 --scale 0.5 --stats
 */

#include <fstream>
#include <iomanip>
#include <iostream>
#include <vector>

#include "harness/chaos.hh"
#include "harness/cli.hh"
#include "harness/runner.hh"
#include "harness/serve.hh"
#include "harness/system.hh"
#include "workloads/workload.hh"

namespace
{

const char *
patternName(idyll::SharePattern p)
{
    using idyll::SharePattern;
    switch (p) {
      case SharePattern::Adjacent:
        return "Adjacent";
      case SharePattern::Random:
        return "Random";
      case SharePattern::ScatterGather:
        return "Scatter-Gather";
      case SharePattern::DnnPipeline:
        return "DNN-Pipeline";
    }
    return "?";
}

void
printServeReport(const idyll::ServeReport &r)
{
    using std::cout;
    cout << std::fixed << std::setprecision(2);
    cout << "app                   " << r.app << "\n"
         << "scheme                " << r.scheme << "\n"
         << "window                " << r.params.windowCycles
         << " cycles\n"
         << "warmup                " << r.params.warmupWindows
         << " windows (" << r.warmupFinished << " requests discarded)\n"
         << "measured windows      " << r.windows.size() << "\n"
         << "storm shifts          " << r.stormShifts << "\n"
         << "steady p50/p99/p99.9  " << r.steadyP50 << " / "
         << r.steadyP99 << " / " << r.steadyP999 << " cy\n"
         << "steady throughput     " << r.steadyThroughputPerKcycle
         << " req/kcycle\n";
    if (r.stormShifts) {
        cout << "storm  p50/p99/p99.9  " << r.stormP50 << " / "
             << r.stormP99 << " / " << r.stormP999 << " cy\n"
             << "tail amplification    " << r.tailAmplification
             << "x (storm p99.9 / steady p99.9)\n";
    }
    if (r.unplugs) {
        cout << "-- degraded mode ---------------------------\n"
             << "unplugs/reattaches    " << r.unplugs << " / "
             << r.reattaches << "\n"
             << "recovery time         " << r.recoveryTimeCycles
             << " cycles\n"
             << "re-homed pages        " << r.rehomedPages
             << " (+" << r.promotedReplicas << " replica promotions)\n"
             << "aborted               " << r.abortedMigrations
             << " migrations, " << r.abortedTokens << " tokens\n"
             << "p99 pre/during/post   " << r.preLossP99 << " / "
             << r.duringRecoveryP99 << " / " << r.postRecoveryP99
             << " cy\n";
    }
    if (r.results.eventsPerSec > 0.0) {
        cout << "host events/sec       " << std::setprecision(0)
             << r.results.eventsPerSec << "\n"
             << std::setprecision(2);
    }
}

std::string
joinRules(const std::vector<std::string> &rules)
{
    if (rules.empty())
        return "(none)";
    std::string out;
    for (std::size_t i = 0; i < rules.size(); ++i) {
        if (i)
            out += ',';
        out += rules[i];
    }
    return out;
}

void
printResults(const idyll::SimResults &r, bool extended)
{
    using std::cout;
    cout << std::fixed << std::setprecision(2);
    cout << "app                   " << r.app << "\n"
         << "scheme                " << r.scheme << "\n"
         << "exec cycles           " << r.execTicks << "\n"
         << "instructions          " << r.instructions << "\n"
         << "accesses              " << r.accesses << " (remote "
         << (r.accesses ? 100.0 * r.remoteAccesses / r.accesses : 0.0)
         << "%)\n"
         << "L2 TLB MPKI           " << r.mpki << "\n"
         << "demand miss latency   " << r.demandMissLatencyAvg
         << " cy avg\n"
         << "far faults            " << r.farFaults << "\n"
         << "migrations            " << r.migrations << "\n"
         << "invalidations         " << r.invalSent << "\n";
    if (!extended)
        return;
    cout << "-- extended --------------------------------\n"
         << "inval necessary       " << r.invalNecessary << "\n"
         << "inval unnecessary     " << r.invalUnnecessary << "\n"
         << "inval walk share      " << 100.0 * r.invalWalkShare()
         << "%\n"
         << "migration wait        " << r.migrationWaitAvg
         << " cy avg\n"
         << "fault resolve         " << r.faultResolveLatencyAvg
         << " cy avg\n"
         << "MMU-cache hit rate    "
         << (r.pwcHits + r.pwcMisses
                 ? 100.0 * r.pwcHits / (r.pwcHits + r.pwcMisses)
                 : 0.0)
         << "%\n";
    for (std::size_t lvl = 0; lvl < r.mmuCacheLevelHits.size(); ++lvl) {
        const std::uint64_t hits = r.mmuCacheLevelHits[lvl];
        const std::uint64_t misses = r.mmuCacheLevelMisses[lvl];
        if (!hits && !misses)
            continue;
        cout << "  L" << (lvl + 1) << " hit rate           "
             << 100.0 * static_cast<double>(hits) /
                    static_cast<double>(hits + misses)
             << "% (" << hits << "/" << (hits + misses) << ")\n";
    }
    cout << "stale PTE drops       " << r.pwcStaleDrops << "\n"
         << "walk queue stalls     " << r.walkQueueFullStalls << "\n";
    if (r.l2SubConflicts)
        cout << "L2 sub-conflicts      " << r.l2SubConflicts << "\n";
    if (r.l2DeadEvictions)
        cout << "L2 dead evictions     " << r.l2DeadEvictions << "\n";
    cout << "network bytes         " << r.networkBytes << "\n";
    if (r.irmbInserts) {
        cout << "IRMB inserts          " << r.irmbInserts << "\n"
             << "IRMB bypass hits      " << r.irmbLookupHits << "\n"
             << "IRMB elided           " << r.irmbElided << "\n"
             << "IRMB written back     " << r.irmbWrittenBack << "\n";
    }
    if (r.transFwForwarded)
        cout << "Trans-FW forwarded    " << r.transFwForwarded << "\n";
    if (r.latDemandCount && !r.latDemandPhaseCycles.empty()) {
        cout << "-- latency attribution (" << r.latDemandCount
             << " demand requests) --\n";
        for (std::size_t p = 0; p < r.latDemandPhaseCycles.size(); ++p) {
            const std::uint64_t cy = r.latDemandPhaseCycles[p];
            if (!cy)
                continue;
            cout << "  " << std::left << std::setw(16)
                 << idyll::latencyPhaseName(
                        static_cast<idyll::LatencyPhase>(p))
                 << std::right
                 << (r.latDemandCycles
                         ? 100.0 * static_cast<double>(cy) /
                               static_cast<double>(r.latDemandCycles)
                         : 0.0)
                 << "%\n";
        }
    }
    cout << "sharing (accesses by #GPUs):";
    std::uint64_t total = 0;
    for (auto b : r.sharingBuckets)
        total += b;
    for (std::size_t k = 0; k < r.sharingBuckets.size() && k < 8; ++k) {
        cout << " " << (k + 1) << ":"
             << (total ? 100.0 * r.sharingBuckets[k] / total : 0.0)
             << "%";
    }
    cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace idyll;

    std::vector<std::string> args(argv + 1, argv + argc);
    CliParse parsed = parseCli(args);
    if (!parsed.ok()) {
        std::cerr << "error: " << parsed.error << "\n" << cliUsage();
        return 2;
    }
    const CliOptions &opts = *parsed.options;
    if (!parsed.warning.empty())
        std::cerr << "warning: " << parsed.warning << "\n";
    if (opts.help) {
        std::cout << cliUsage();
        return 0;
    }
    if (opts.listApps) {
        // Name and inter-GPU sharing pattern, one workload a line.
        auto list = [](const char *heading,
                       const std::vector<std::string> &names) {
            std::cout << heading << ":\n";
            for (const std::string &name : names) {
                std::cout << "  " << std::left << std::setw(10) << name
                          << patternName(
                                 Workload::byName(name).params().pattern)
                          << "\n";
            }
        };
        list("applications (Table 3)", Workload::appNames());
        list("DNN models", Workload::dnnNames());
        return 0;
    }

    try {
        if (opts.digest) {
            // Digest mode: run and print only the final host
            // page-table digest (for faulted-vs-clean comparisons).
            // Scale the config exactly as runOnce() would so digests
            // are comparable with normal runs of the same flags.
            MultiGpuSystem system(scaledForSim(opts.config));
            system.run(Workload::byName(opts.app, opts.scale));
            std::cout << "digest 0x" << std::hex
                      << system.translationStateDigest() << std::dec
                      << "\n";
            return 0;
        }
        if (opts.traceDigest) {
            // Trace-digest mode: run traced and print the canonical
            // per-category event counts and order-insensitive hashes.
            // The golden-trace regression tests pin this text.
            MultiGpuSystem system(opts.config);
            system.run(Workload::byName(opts.app, opts.scale));
            std::cout << system.traceDigest()->canonicalText();
            return 0;
        }
        if (opts.chaos) {
            ChaosOptions copts;
            copts.seed = opts.chaosSeed;
            copts.durationSeconds = opts.chaosSeconds;
            copts.maxTrials = opts.chaosTrials;
            copts.app = opts.app;
            copts.scheme = opts.scheme;
            copts.scale = opts.scale;
            copts.baseCfg = opts.config;
            if (opts.stormEvery)
                copts.stormEvery = opts.stormEvery;
            ChaosReport report = runChaosSoak(copts);
            std::cout << "chaos trials          " << report.trials
                      << " (" << report.passed << " passed, "
                      << report.hangs << " hangs)\n";
            if (report.failed) {
                std::cout << "FAILED trial " << report.failure.index
                          << " (seed " << report.failure.seed
                          << ", exit " << report.failure.exitCode
                          << ")\n"
                          << "minimized faults      "
                          << joinRules(report.minimizedFaultRules) << "\n"
                          << "minimized unplugs     "
                          << joinRules(report.minimizedUnplugEvents)
                          << "\n"
                          << "repro: " << report.reproCommand << "\n";
            }
            if (!opts.chaosOut.empty()) {
                std::ofstream os(opts.chaosOut);
                if (!os) {
                    std::cerr << "error: cannot write " << opts.chaosOut
                              << "\n";
                    return 1;
                }
                os << report.toJson();
            }
            return report.failed ? 1 : 0;
        }
        if (opts.serve) {
            ServeParams params;
            params.windowCycles = opts.serveWindow;
            params.warmupWindows = opts.serveWarmup;
            params.maxWindows = opts.serveWindows;
            params.stormEvery = opts.stormEvery;
            params.stormShiftPages = opts.stormShift;
            ServeReport report =
                runServe(opts.app, opts.config, opts.scale, params);
            printServeReport(report);
            if (!opts.benchOut.empty()) {
                std::ofstream os(opts.benchOut);
                if (!os) {
                    std::cerr << "error: cannot write "
                              << opts.benchOut << "\n";
                    return 1;
                }
                os << report.toJson() << "\n";
            }
            if (!opts.jsonOut.empty()) {
                std::ofstream os(opts.jsonOut);
                if (!os) {
                    std::cerr << "error: cannot write " << opts.jsonOut
                              << "\n";
                    return 1;
                }
                os << report.results.toJson() << "\n";
            }
            return 0;
        }
        SimResults r = runOnce(opts.app, opts.config, opts.scale);
        printResults(r, opts.dumpStats);
        if (!opts.jsonOut.empty()) {
            std::ofstream os(opts.jsonOut);
            if (!os) {
                std::cerr << "error: cannot write " << opts.jsonOut
                          << "\n";
                return 1;
            }
            os << r.toJson() << "\n";
        }
    } catch (const ConfigError &err) {
        std::cerr << "error: " << err.what() << "\n";
        return 1;
    }
    return 0;
}
