/**
 * @file
 * Aggregated results of one simulation run: every quantity any paper
 * figure needs, collected across GPUs, driver, GMMUs, and network.
 */

#ifndef IDYLL_HARNESS_RESULTS_HH
#define IDYLL_HARNESS_RESULTS_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "sim/types.hh"

namespace idyll
{

class JsonValue;

/** One run's headline numbers. */
struct SimResults
{
    std::string app;
    std::string scheme;

    // --- end-to-end -----------------------------------------------------
    Tick execTicks = 0;
    std::uint64_t instructions = 0;

    // --- accesses ---------------------------------------------------------
    std::uint64_t accesses = 0;
    std::uint64_t localAccesses = 0;
    std::uint64_t remoteAccesses = 0;

    // --- TLBs ----------------------------------------------------------
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    double mpki = 0.0; ///< L2 TLB misses per kilo-instruction

    // --- demand translation ----------------------------------------------
    std::uint64_t demandTlbMisses = 0;
    double demandMissLatencyAvg = 0.0;
    double demandMissLatencyTotal = 0.0;
    std::uint64_t farFaults = 0;
    double faultResolveLatencyAvg = 0.0;

    // --- page walker -----------------------------------------------------
    std::uint64_t demandWalks = 0;
    std::uint64_t invalWalks = 0; ///< individual PTE invalidations walked
    std::uint64_t updateWalks = 0;
    /** MMU-cache probes answered at any level (legacy name kept). */
    std::uint64_t pwcHits = 0;
    std::uint64_t pwcMisses = 0;
    /** Stale node pointers dropped below the present path. */
    std::uint64_t pwcStaleDrops = 0;
    /** Per-node-level MMU-cache hits/misses, index = level - 1. */
    std::vector<std::uint64_t> mmuCacheLevelHits;
    std::vector<std::uint64_t> mmuCacheLevelMisses;
    std::uint64_t walkQueueFullStalls = 0;
    /** Sub-entry-conflict L2 TLB fills (sub-entry mode only). */
    std::uint64_t l2SubConflicts = 0;
    /** Never-re-referenced evictions, L2 TLB (dead-evict mode only). */
    std::uint64_t l2DeadEvictions = 0;
    std::uint64_t busyDemandCycles = 0;
    std::uint64_t busyInvalCycles = 0;

    // --- invalidations -----------------------------------------------------
    std::uint64_t invalSent = 0;
    std::uint64_t invalNecessary = 0;
    std::uint64_t invalUnnecessary = 0;
    double invalServiceLatencyTotal = 0.0; ///< GPU-side apply latency

    // --- migration ---------------------------------------------------------
    std::uint64_t migrationRequests = 0;
    std::uint64_t migrations = 0;
    double migrationWaitAvg = 0.0;
    double migrationWaitTotal = 0.0;
    double migrationTotalAvg = 0.0;

    // --- IDYLL structures ---------------------------------------------------
    std::uint64_t irmbInserts = 0;
    std::uint64_t irmbLookupHits = 0;
    std::uint64_t irmbElided = 0;
    std::uint64_t irmbWrittenBack = 0;
    std::uint64_t irmbEvictions = 0;
    std::uint64_t transFwForwarded = 0;
    std::uint64_t vmCacheHits = 0;
    std::uint64_t vmCacheMisses = 0;

    // --- sharing / traffic ---------------------------------------------------
    /** accesses to pages shared by exactly (index+1) GPUs (Fig. 4). */
    std::vector<std::uint64_t> sharingBuckets;
    std::uint64_t networkBytes = 0;

    // --- host (wall-clock) performance; zero unless cfg.hostStats ---------
    /** Wall-clock seconds spent draining the event queue. */
    double hostSeconds = 0.0;
    /** Events dispatched by the kernel during the run. */
    std::uint64_t eventsExecuted = 0;
    /** eventsExecuted / hostSeconds -- simulator dispatch throughput. */
    double eventsPerSec = 0.0;

    // --- observability -----------------------------------------------------
    /** One-line trace digest (empty when the run was not traced). */
    std::string traceDigest;

    /** Nested metrics-registry JSON (empty for bare results). */
    std::string metricsJson;

    // --- latency attribution (scoreboard; zero/empty when disabled) --------
    std::uint64_t latDemandCount = 0;  ///< finished demand tokens
    std::uint64_t latDemandCycles = 0; ///< summed end-to-end latency
    std::uint64_t latInvalCount = 0;
    std::uint64_t latInvalCycles = 0;
    /** Exclusive cycles per LatencyPhase, index = phase enum value. */
    std::vector<std::uint64_t> latDemandPhaseCycles;
    std::vector<std::uint64_t> latInvalPhaseCycles;
    /** Full scoreboard JSON: histograms, per-GPU, walk depths. */
    std::string latencyJson;
    /** Interval-sampler ring JSON (empty unless sampling was on). */
    std::string samplesJson;

    // --- shard telemetry (hostStats && sharded runs only) -------------
    /** 100 * (busiest shard - mean) / mean events executed. */
    double shardImbalancePct = 0.0;
    /** Percent of (window, shard) slots that dispatched nothing. */
    double lookaheadStallPct = 0.0;
    /** The scheduler's "shards" metrics group as JSON. */
    std::string shardTelemetryJson;

    struct Field;

    /** Every serialized member, in output order (see Field). */
    static std::span<const Field> fields();

    /**
     * Serialize fields() as one JSON object (single line, members in
     * table order, each only when its condition holds). Doubles
     * round-trip exactly (max_digits10), so serialized results
     * compare bit-identical across runs. See README.md for the schema.
     */
    std::string toJson() const;

    /**
     * Read a toJson object back through fields(). An absent member
     * keeps its default; raw-JSON members are not read (walk them
     * with JsonValue). Returns nullopt and, when @p error is
     * non-null, a message naming the key when the value is not an
     * object or a member has the wrong type.
     */
    static std::optional<SimResults> fromJson(const JsonValue &json,
                                              std::string *error = nullptr);

    /** Speedup of this run relative to @p base (higher is better). */
    double
    speedupOver(const SimResults &base) const
    {
        return execTicks == 0
                   ? 0.0
                   : static_cast<double>(base.execTicks) /
                         static_cast<double>(execTicks);
    }

    /** Fraction of page-walker requests that are invalidations. */
    double
    invalWalkShare() const
    {
        const auto total = demandWalks + invalWalks;
        return total == 0 ? 0.0
                          : static_cast<double>(invalWalks) /
                                static_cast<double>(total);
    }
};

/** One results-JSON member: its name and the SimResults member. */
struct SimResults::Field
{
    /** A member holding a sub-system's own JSON text: written as is
     *  when non-empty, never read back by fromJson. */
    struct Raw
    {
        std::string SimResults::*text;
    };

    using Member =
        std::variant<std::uint64_t SimResults::*, double SimResults::*,
                     std::string SimResults::*,
                     std::vector<std::uint64_t> SimResults::*, Raw>;

    const char *name;
    Member member;
    /** Written only when this holds (nullptr: always). */
    bool (*when)(const SimResults &) = nullptr;
};

} // namespace idyll

#endif // IDYLL_HARNESS_RESULTS_HH
