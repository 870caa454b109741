/**
 * @file
 * Event-core shard scaling: one 32-GPU smoke workload run at
 * --shards 1, 4, and 8, reporting wall-clock dispatch throughput
 * (events/sec) per shard count.
 *
 * Two things are checked:
 *  - Identity: every sharded run must produce bit-identical simulated
 *    results to the serial run (only the host wall-clock fields may
 *    differ). A mismatch is a correctness bug and fails the bench.
 *  - Throughput: events/sec per shard count, written as a BENCH JSON
 *    artifact (--out FILE) that the CI perf-trajectory job gates at
 *    a 30% regression threshold against the previous run.
 *
 * The speedup is hardware-dependent: shards occupy one thread each,
 * so a single-core host shows a slowdown (rendezvous overhead, no
 * parallelism) while a >= 8-thread host is expected to clear 2x at 8
 * shards. The committed baseline was measured on the smallest CI
 * machine, so throughput gains never trip the gate.
 */

#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>

#include "harness/runner.hh"

int
main(int argc, char **argv)
{
    using namespace idyll;

    std::string out;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc)
            out = argv[++i];
    }

    std::cout << "Shard scaling: event-core shards on a 32-GPU fabric "
                 "(KM smoke)\n"
              << "expectation: sharded runs bit-identical to serial; "
                 "events/sec scales with shards on multi-core hosts\n";

    const double scale = benchScale();
    const double work = scale * 4.0 / 32.0; // fig18 sizing at 32 GPUs

    // Strip the host wall-clock fields and run-shape telemetry:
    // everything else must be bit-identical across shard counts.
    const auto canonical = [](SimResults r) {
        r.hostSeconds = 0.0;
        r.eventsPerSec = 0.0;
        r.eventsExecuted = 0;
        r.shardImbalancePct = 0.0;
        r.lookaheadStallPct = 0.0;
        r.shardTelemetryJson.clear();
        return r.toJson();
    };

    const std::vector<std::uint32_t> shardCounts{1, 4, 8};
    std::vector<double> eps, imbalance, stall;
    std::string serialCanonical;
    for (std::uint32_t shards : shardCounts) {
        SystemConfig cfg = scaledForSim(SystemConfig::idyllFull());
        cfg.numGpus = 32;
        cfg.shards = shards;
        cfg.hostStats = true;
        const SimResults r = runOnce("KM", cfg, work);
        eps.push_back(r.eventsPerSec);
        imbalance.push_back(r.shardImbalancePct);
        stall.push_back(r.lookaheadStallPct);
        std::cout << "shards=" << shards << "  events/sec "
                  << std::fixed << std::setprecision(0)
                  << r.eventsPerSec << "  hostSeconds "
                  << std::setprecision(3) << r.hostSeconds;
        if (shards > 1) {
            std::cout << std::setprecision(1) << "  imbalance "
                      << r.shardImbalancePct << "%  stalledSlots "
                      << r.lookaheadStallPct << "%";
        }
        std::cout << std::defaultfloat << "  execTicks " << r.execTicks
                  << "\n";
        if (shards == 1) {
            serialCanonical = canonical(r);
        } else if (canonical(r) != serialCanonical) {
            std::cerr << "FAIL: --shards " << shards
                      << " results differ from serial\n";
            return 1;
        }
    }
    std::cout << "speedup at 8 shards vs serial: " << std::fixed
              << std::setprecision(2) << eps[2] / eps[0] << "x\n"
              << std::defaultfloat;

    // The imbalance/stall metrics describe run shape, not speed;
    // bench_compare classifies them neutral so machine-to-machine
    // variation never trips the drop gate.
    std::ostringstream js;
    js << std::setprecision(std::numeric_limits<double>::max_digits10)
       << "{\"bench\":\"shard_scaling\",\"schema\":1,\"metrics\":{"
       << "\"eventsPerSecShards1\":" << eps[0] << ","
       << "\"eventsPerSecShards4\":" << eps[1] << ","
       << "\"eventsPerSecShards8\":" << eps[2] << ","
       << "\"shardImbalancePctShards4\":" << imbalance[1] << ","
       << "\"shardImbalancePctShards8\":" << imbalance[2] << ","
       << "\"lookaheadStallPctShards4\":" << stall[1] << ","
       << "\"lookaheadStallPctShards8\":" << stall[2] << "}}";
    std::cout << js.str() << "\n";
    if (!out.empty()) {
        std::ofstream os(out);
        if (!os) {
            std::cerr << "error: cannot write " << out << "\n";
            return 1;
        }
        os << js.str() << "\n";
    }
    return 0;
}
