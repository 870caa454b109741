/**
 * @file
 * Command-line options for the idyll_sim driver tool (and anything
 * else that wants "run app X under scheme Y" from flags). Parsing is
 * pure (no I/O) so it is unit-testable.
 */

#ifndef IDYLL_HARNESS_CLI_HH
#define IDYLL_HARNESS_CLI_HH

#include <optional>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "sim/config.hh"
#include "sim/json.hh"

namespace idyll
{

/** Parsed command line. */
struct CliOptions
{
    std::string app = "KM";
    std::string scheme = "baseline";
    double scale = 1.0;
    bool dumpStats = false;
    bool listApps = false;
    bool help = false;
    /// --digest and --trace-digest choose what the one run prints:
    bool digest = false;      ///< the final translation-state digest
    bool traceDigest = false; ///< the canonical trace digest
    std::string jsonOut;      ///< write full results JSON to this file

    // --- serve mode (harness/serve.hh) — plain scalars so cli.hh
    // --- need not pull the serve header in ---------------------------
    bool serve = false;               ///< run the windowed SLO harness
    std::uint64_t serveWindow = 20000; ///< window length (cycles)
    std::uint32_t serveWarmup = 2;    ///< warmup windows to discard
    std::uint32_t serveWindows = 0;   ///< measured windows (0 = all)
    std::uint32_t stormEvery = 0;     ///< storm every Nth window
    std::uint64_t stormShift = 0;     ///< pages per shift (0 = hotPages)
    std::string benchOut;             ///< write BENCH_*.json here

    // --- chaos soak mode (harness/chaos.hh) --------------------------
    bool chaos = false;            ///< run a chaos soak campaign
    std::uint64_t chaosSeed = 1;   ///< campaign seed
    double chaosSeconds = 0.0;     ///< wall-clock budget (0 = trials)
    std::uint64_t chaosTrials = 0; ///< trial cap (0 = time budget)
    std::string chaosOut;          ///< write the chaos JSON artifact here

    SystemConfig config; ///< fully resolved configuration
};

/** Result of parsing: options or an error message. */
struct CliParse
{
    std::optional<CliOptions> options;
    std::string error;

    bool ok() const { return options.has_value(); }
};

/**
 * Parse argv-style arguments.
 *
 * Recognized flags:
 *   --app NAME          workload (Table 3 abbreviation or DNN model)
 *   --scheme NAME       baseline|only-lazy|only-dir|idyll|inmem|zero|
 *                       replication|transfw
 *   --gpus N            GPU count
 *   --cus N             CUs per GPU
 *   --walkers N         page-table walker threads
 *   --l2tlb N           L2 TLB entries
 *   --l2-subentry N     pages sharing one L2 TLB tag
 *   --dead-evict        dead-entry-aware L2 TLB / MMU-cache eviction
 *   --mmu-cache ExW,... per-level MMU-cache geometry, leaf level first
 *   --threshold N       access counter threshold (unscaled)
 *   --page-size 4k|2m   page size
 *   --irmb BxO          IRMB geometry, e.g. 32x16
 *   --dir-bits M        in-PTE directory bits
 *   --scale F           per-CU work multiplier
 *   --shards N          event-core shards per run (1 = serial)
 *   --seed N            RNG seed
 *   --raw               do NOT apply the simulation scaling
 *   --stats             print extended statistics
 *   --unplug PLAN       GPU hot-unplug schedule, e.g. g1@60000/140000
 *   --digest            print the final translation-state digest
 *   --trace-out FILE    stream JSONL trace events to FILE
 *   --trace-digest      print the canonical trace digest (implies
 *                       --trace all unless --trace was given)
 *   --sample-records N  interval-sampler ring capacity (default 4096)
 *   --sample-out FILE   write the sample ring JSON to FILE
 *   --json FILE         write the run's full results JSON to FILE
 *   --progress[=SECS]   live status line on stderr every SECS (5)
 *   --serve             windowed steady-state SLO mode (serve.hh)
 *   --serve-window N    measurement window length in cycles
 *   --serve-warmup N    warmup windows discarded before measuring
 *   --serve-windows N   measured windows before free drain (0 = all)
 *   --storm-every N     shift the hot set every Nth window (0 = off)
 *   --storm-shift N     pages per hot-set shift (0 = the app's hotPages)
 *   --bench-out FILE    write the serve BENCH_*.json artifact to FILE
 *   --chaos SEED,SECONDS  run a chaos soak campaign: seeded random
 *                       fault plans + unplug schedules + storms with
 *                       the oracle on, until SECONDS elapse or a
 *                       trial fails (then the failure is minimized)
 *   --chaos-trials N    cap the campaign at N trials (0 = time bound)
 *   --chaos-out FILE    write the chaos JSON artifact to FILE
 *   --list-apps         list workloads and exit
 *   --help              usage
 * plus the instrument flags of parseInstrumentFlag(). A count that
 * does not fit its field (e.g. --gpus 4294967298) is an error.
 */
CliParse parseCli(const std::vector<std::string> &args);

/** The usage text for --help / errors. */
std::string cliUsage();

/**
 * Parse args[i] if it is one of the instrument flags idyll_sim and
 * idyll_sweep share, advancing @p i past its value and appending the
 * knob to @p edits:
 *   --oracle            enable the translation-coherence oracle
 *   --faults PLAN       fault-injection plan (see README)
 *   --retry-timeout N   driver re-sends unacked invalidations after N
 *   --watchdog-events N trip after N events with no forward progress
 *   --watchdog-ticks N  trip after N ticks with no forward progress
 *   --trace CATS        enable tracing: "all" or csv of
 *                       tlb,irmb,dir,walk,mig,inval,fault,net
 *   --latency           enable the per-request latency scoreboard
 *   --sample-every N    sample queue depths every N cycles
 *   --host-stats        wall-clock dispatch throughput in the results
 *
 * @return false when args[i] is not an instrument flag; otherwise
 *         true, with @p error set when its value is missing or bad.
 */
bool parseInstrumentFlag(const std::vector<std::string> &args,
                         std::size_t &i, std::vector<ConfigEdit> &edits,
                         std::string &error);

/** The usage lines of the instrument flags (parseInstrumentFlag). */
std::string instrumentUsage();

/** parseUnsigned, and the value must lie in [@p min, @p max]. */
bool parseCount(const std::string &text, std::uint64_t min,
                std::uint64_t max, std::uint64_t &out);

/** Resolve a scheme name to a configuration (empty optional = bad). */
std::optional<SystemConfig> schemeByName(const std::string &name);

} // namespace idyll

#endif // IDYLL_HARNESS_CLI_HH
