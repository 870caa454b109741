#include "harness/cli.hh"

#include <limits>
#include <sstream>

#include "harness/runner.hh"
#include "sim/trace.hh"

namespace idyll
{

namespace
{

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

/** Advance @p i to the flag's value; false when there is none. */
bool
takeValue(const std::vector<std::string> &args, std::size_t &i,
          std::string &out)
{
    if (i + 1 >= args.size())
        return false;
    out = args[++i];
    return true;
}

/**
 * Take the value of flag args[i] as a count of at least @p min that
 * fits @p out; otherwise set @p error and return false.
 */
template <typename T>
bool
takeCount(const std::vector<std::string> &args, std::size_t &i,
          std::uint64_t min, T &out, std::string &error)
{
    const std::string &flag = args[i];
    const std::uint64_t max = std::numeric_limits<T>::max();
    std::string text;
    std::uint64_t n = 0;
    if (takeValue(args, i, text) && parseCount(text, min, max, n)) {
        out = static_cast<T>(n);
        return true;
    }
    if (max == kMaxU64)
        error = flag + (min ? " needs a positive integer"
                            : " needs a non-negative integer");
    else
        error = flag + " needs an integer in [" + std::to_string(min) +
                ", " + std::to_string(max) + "]";
    return false;
}

/** Parse "AxB" where A and B are positive 32-bit counts. */
bool
parseGeometry(const std::string &text, std::uint32_t &a, std::uint32_t &b)
{
    const auto x = text.find('x');
    std::uint64_t first = 0, second = 0;
    if (x == std::string::npos ||
        !parseCount(text.substr(0, x), 1, kMaxU32, first) ||
        !parseCount(text.substr(x + 1), 1, kMaxU32, second))
        return false;
    a = static_cast<std::uint32_t>(first);
    b = static_cast<std::uint32_t>(second);
    return true;
}

/** A count flag (at least 1) that sets one field of the config. */
template <typename T>
struct FieldFlag
{
    const char *name;
    T &(*field)(SystemConfig &);
};

/** The machine-shape counts of idyll_sim. */
const FieldFlag<std::uint32_t> kShapeFlags[] = {
    {"--gpus", [](SystemConfig &c) -> auto & { return c.numGpus; }},
    {"--cus", [](SystemConfig &c) -> auto & { return c.cusPerGpu; }},
    {"--walkers",
     [](SystemConfig &c) -> auto & { return c.gmmu.walkerThreads; }},
    {"--l2tlb", [](SystemConfig &c) -> auto & { return c.l2Tlb.entries; }},
    {"--l2-subentry",
     [](SystemConfig &c) -> auto & { return c.l2Tlb.subEntries; }},
    {"--threshold",
     [](SystemConfig &c) -> auto & { return c.accessCounterThreshold; }},
    {"--dir-bits",
     [](SystemConfig &c) -> auto & { return c.directoryBits; }},
    {"--shards", [](SystemConfig &c) -> auto & { return c.shards; }},
    {"--sample-records",
     [](SystemConfig &c) -> auto & { return c.sampler.maxRecords; }},
};

/** The counting instrument knobs. */
const FieldFlag<std::uint64_t> kInstrumentCounts[] = {
    {"--retry-timeout",
     [](SystemConfig &c) -> auto & { return c.integrity.invalRetryTimeout; }},
    {"--watchdog-events",
     [](SystemConfig &c) -> auto & {
         return c.integrity.watchdogMaxIdleEvents;
     }},
    {"--watchdog-ticks",
     [](SystemConfig &c) -> auto & {
         return c.integrity.watchdogMaxIdleTicks;
     }},
    {"--sample-every",
     [](SystemConfig &c) -> auto & { return c.sampler.everyCycles; }},
};

/**
 * If args[i] is a flag of @p table, take its count and queue the edit
 * (or set @p error); returns whether args[i] was such a flag.
 */
template <typename T, std::size_t N>
bool
takeFieldFlag(const FieldFlag<T> (&table)[N],
              const std::vector<std::string> &args, std::size_t &i,
              std::vector<ConfigEdit> &edits, std::string &error)
{
    for (const FieldFlag<T> &flag : table) {
        if (args[i] != flag.name)
            continue;
        T n = 0;
        if (takeCount(args, i, 1, n, error))
            edits.push_back(
                [field = flag.field, n](SystemConfig &c) { field(c) = n; });
        return true;
    }
    return false;
}

} // namespace

std::optional<SystemConfig>
schemeByName(const std::string &name)
{
    if (name == "baseline")
        return SystemConfig::baseline();
    if (name == "only-lazy")
        return SystemConfig::onlyLazy();
    if (name == "only-dir")
        return SystemConfig::onlyDirectory();
    if (name == "idyll")
        return SystemConfig::idyllFull();
    if (name == "inmem")
        return SystemConfig::idyllInMem();
    if (name == "zero")
        return SystemConfig::zeroLatencyInval();
    if (name == "replication") {
        SystemConfig cfg = SystemConfig::baseline();
        cfg.pageReplication = true;
        return cfg;
    }
    if (name == "transfw") {
        SystemConfig cfg = SystemConfig::baseline();
        cfg.transFw.enabled = true;
        return cfg;
    }
    if (name == "idyll+transfw") {
        SystemConfig cfg = SystemConfig::idyllFull();
        cfg.transFw.enabled = true;
        return cfg;
    }
    if (name == "idyll+dead") {
        // IDYLL plus dead-entry-aware replacement in the shared L2
        // TLB and every MMU-cache level.
        SystemConfig cfg = SystemConfig::idyllFull();
        cfg.l2Tlb.deadEntryEviction = true;
        cfg.gmmu.deadEntryEviction = true;
        return cfg;
    }
    if (name == "idyll+sub") {
        // IDYLL plus sub-entry sharing (4 pages per tag) in the
        // shared L2 TLB.
        SystemConfig cfg = SystemConfig::idyllFull();
        cfg.l2Tlb.subEntries = 4;
        return cfg;
    }
    return std::nullopt;
}

std::string
instrumentUsage()
{
    return "instrument flags:\n"
           "  --oracle            translation-coherence oracle\n"
           "  --faults PLAN       fault plan, e.g. inval.delay=800@0.3\n"
           "  --retry-timeout N   re-send unacked invalidations after N\n"
           "  --watchdog-events N trip after N events with no progress\n"
           "  --watchdog-ticks N  trip after N ticks with no progress\n"
           "  --trace CATS        all or csv of tlb,irmb,dir,walk,mig,\n"
           "                      inval,fault,net\n"
           "  --latency           per-request latency scoreboard\n"
           "  --sample-every N    sample queue depths every N cycles\n"
           "  --host-stats        wall-clock throughput in the results\n";
}

std::string
cliUsage()
{
    return "usage: idyll_sim [--app NAME] [--scheme NAME] [--gpus N]\n"
           "                 [--cus N] [--walkers N] [--l2tlb N]\n"
           "                 [--l2-subentry N] [--dead-evict]\n"
           "                 [--mmu-cache ExW[,ExW...]]\n"
           "                 [--threshold N] [--page-size 4k|2m]\n"
           "                 [--irmb BxO] [--dir-bits M] [--scale F]\n"
           "                 [--shards N] [--seed N] [--raw] [--stats]\n"
           "                 [--unplug PLAN] [--digest] [--trace-digest]\n"
           "                 [--trace-out FILE] [--sample-records N]\n"
           "                 [--sample-out FILE] [--json FILE]\n"
           "                 [--progress[=SECS]] [--list-apps] [--help]\n"
           "                 [--serve] [--serve-window N]\n"
           "                 [--serve-warmup N] [--serve-windows N]\n"
           "                 [--storm-every N] [--storm-shift N]\n"
           "                 [--bench-out FILE]\n"
           "                 [--chaos SEED,SECONDS] [--chaos-trials N]\n"
           "                 [--chaos-out FILE] [instrument flags]\n" +
           instrumentUsage() +
           "schemes: baseline only-lazy only-dir idyll inmem zero\n"
           "         replication transfw idyll+transfw idyll+dead\n"
           "         idyll+sub\n"
           "--digest and --trace-digest choose what a plain run prints\n"
           "(either or both) in place of the headline numbers.\n"
           "--mmu-cache sizes the per-level MMU caches from the leaf\n"
           "(L1) up, e.g. 64x8,32x4,16x4,8x4; the last entry repeats\n"
           "for deeper levels. --l2-subentry N shares one L2 TLB tag\n"
           "across N contiguous pages; --dead-evict enables dead-\n"
           "entry-aware replacement in the L2 TLB and MMU caches\n"
           "--shards N runs the event core on N shards (1 = serial)\n";
}

bool
parseCount(const std::string &text, std::uint64_t min, std::uint64_t max,
           std::uint64_t &out)
{
    return parseUnsigned(text, out) && out >= min && out <= max;
}

bool
parseInstrumentFlag(const std::vector<std::string> &args, std::size_t &i,
                    std::vector<ConfigEdit> &edits, std::string &error)
{
    const std::string &flag = args[i];
    std::string text;
    if (takeFieldFlag(kInstrumentCounts, args, i, edits, error))
        return true;
    if (flag == "--oracle") {
        edits.push_back([](SystemConfig &c) { c.integrity.oracle = true; });
    } else if (flag == "--latency") {
        edits.push_back([](SystemConfig &c) { c.latency.enabled = true; });
    } else if (flag == "--host-stats") {
        edits.push_back([](SystemConfig &c) { c.hostStats = true; });
    } else if (flag == "--faults") {
        if (!takeValue(args, i, text))
            error = "--faults needs a plan, e.g. inval.delay=800@0.3";
        else
            edits.push_back([text](SystemConfig &c) {
                c.integrity.faultPlan = text;
            });
    } else if (flag == "--trace") {
        if (!takeValue(args, i, text))
            error = "--trace needs categories, e.g. all or tlb,irmb,inval";
        else if (!parseTraceCategories(text))
            error = "unknown trace category in '" + text + "'";
        else
            edits.push_back(
                [text](SystemConfig &c) { c.trace.categories = text; });
    } else {
        return false;
    }
    return true;
}

CliParse
parseCli(const std::vector<std::string> &args)
{
    CliOptions opts;
    bool raw = false;
    // Configuration flags wait until the scheme preset is resolved.
    std::vector<ConfigEdit> edits;
    std::string error;
    auto fail = [](std::string msg) {
        return CliParse{std::nullopt, std::move(msg)};
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        std::string value;
        if (takeFieldFlag(kShapeFlags, args, i, edits, error) ||
            parseInstrumentFlag(args, i, edits, error)) {
            if (!error.empty())
                return fail(error);
        } else if (arg == "--help") {
            opts.help = true;
        } else if (arg == "--list-apps") {
            opts.listApps = true;
        } else if (arg == "--stats") {
            opts.dumpStats = true;
        } else if (arg == "--raw") {
            raw = true;
        } else if (arg == "--digest") {
            opts.digest = true;
        } else if (arg == "--trace-digest") {
            opts.traceDigest = true;
        } else if (arg == "--serve") {
            opts.serve = true;
        } else if (arg == "--dead-evict") {
            edits.push_back([](SystemConfig &c) {
                c.l2Tlb.deadEntryEviction = true;
                c.gmmu.deadEntryEviction = true;
            });
        } else if (arg == "--app") {
            if (!takeValue(args, i, opts.app))
                return fail("--app needs a value");
        } else if (arg == "--scheme") {
            if (!takeValue(args, i, opts.scheme))
                return fail("--scheme needs a value");
        } else if (arg == "--json") {
            if (!takeValue(args, i, opts.jsonOut))
                return fail("--json needs a file path");
        } else if (arg == "--bench-out") {
            if (!takeValue(args, i, opts.benchOut))
                return fail("--bench-out needs a file path");
        } else if (arg == "--chaos-out") {
            if (!takeValue(args, i, opts.chaosOut))
                return fail("--chaos-out needs a file path");
        } else if (arg == "--scale") {
            if (!takeValue(args, i, value) ||
                !parseDouble(value, opts.scale) || opts.scale <= 0.0)
                return fail("--scale needs a positive number");
        } else if (arg == "--seed") {
            std::uint64_t seed = 0;
            if (!takeCount(args, i, 0, seed, error))
                return fail(error);
            edits.push_back([seed](SystemConfig &c) { c.seed = seed; });
        } else if (arg == "--serve-window") {
            if (!takeCount(args, i, 1, opts.serveWindow, error))
                return fail(error);
        } else if (arg == "--serve-warmup") {
            if (!takeCount(args, i, 0, opts.serveWarmup, error))
                return fail(error);
        } else if (arg == "--serve-windows") {
            if (!takeCount(args, i, 0, opts.serveWindows, error))
                return fail(error);
        } else if (arg == "--storm-every") {
            if (!takeCount(args, i, 0, opts.stormEvery, error))
                return fail(error);
        } else if (arg == "--storm-shift") {
            if (!takeCount(args, i, 0, opts.stormShift, error))
                return fail(error);
        } else if (arg == "--chaos-trials") {
            if (!takeCount(args, i, 0, opts.chaosTrials, error))
                return fail(error);
        } else if (arg == "--page-size") {
            if (!takeValue(args, i, value))
                return fail("--page-size needs 4k or 2m");
            std::uint32_t bits = 0;
            if (value == "4k" || value == "4K")
                bits = 12;
            else if (value == "2m" || value == "2M")
                bits = 21;
            else
                return fail("--page-size must be 4k or 2m");
            edits.push_back([bits](SystemConfig &c) { c.pageBits = bits; });
        } else if (arg == "--irmb") {
            std::uint32_t bases = 0, offsets = 0;
            if (!takeValue(args, i, value) ||
                !parseGeometry(value, bases, offsets))
                return fail("--irmb needs BxO, e.g. 32x16");
            edits.push_back([bases, offsets](SystemConfig &c) {
                c.irmb.bases = bases;
                c.irmb.offsetsPerBase = offsets;
            });
        } else if (arg == "--mmu-cache") {
            const std::string usage = "--mmu-cache needs ExW[,ExW...], "
                                      "e.g. 64x8,32x4,16x4,8x4";
            if (!takeValue(args, i, value))
                return fail(usage);
            std::vector<MmuCacheLevelConfig> levels;
            std::stringstream ss(value);
            std::string item;
            while (std::getline(ss, item, ',')) {
                MmuCacheLevelConfig level;
                if (!parseGeometry(item, level.entries, level.ways))
                    return fail(usage);
                levels.push_back(level);
            }
            if (levels.empty())
                return fail("--mmu-cache needs at least one ExW level");
            edits.push_back(
                [levels](SystemConfig &c) { c.gmmu.mmuCache = levels; });
        } else if (arg == "--unplug") {
            if (!takeValue(args, i, value))
                return fail("--unplug needs a plan, e.g. "
                            "g1@60000/140000");
            edits.push_back([value](SystemConfig &c) {
                c.integrity.unplugPlan = value;
            });
        } else if (arg == "--trace-out") {
            if (!takeValue(args, i, value))
                return fail("--trace-out needs a file path");
            edits.push_back(
                [value](SystemConfig &c) { c.trace.jsonlPath = value; });
        } else if (arg == "--sample-out") {
            if (!takeValue(args, i, value))
                return fail("--sample-out needs a file path");
            edits.push_back(
                [value](SystemConfig &c) { c.sampler.jsonPath = value; });
        } else if (arg == "--progress" ||
                   arg.rfind("--progress=", 0) == 0) {
            double secs = 5.0;
            if (arg.size() > 10) {
                if (!parseDouble(arg.substr(11), secs) || secs <= 0.0)
                    return fail("--progress=SECS needs a positive "
                                "number");
            }
            edits.push_back(
                [secs](SystemConfig &c) { c.progressSecs = secs; });
        } else if (arg == "--chaos") {
            if (!takeValue(args, i, value))
                return fail("--chaos needs SEED,SECONDS, e.g. 7,60");
            const auto comma = value.find(',');
            std::uint64_t s = 0;
            double d = 0.0;
            if (comma == std::string::npos ||
                !parseUnsigned(value.substr(0, comma), s) ||
                !parseDouble(value.substr(comma + 1), d) || d < 0)
                return fail("--chaos needs SEED,SECONDS, e.g. 7,60");
            opts.chaos = true;
            opts.chaosSeed = s;
            opts.chaosSeconds = d;
        } else {
            return fail("unknown argument '" + arg + "'");
        }
    }

    if ((opts.serve || opts.chaos) && (opts.digest || opts.traceDigest))
        return fail("--digest and --trace-digest print a plain run's "
                    "state; --serve and --chaos are separate drivers");
    auto preset = schemeByName(opts.scheme);
    if (!preset)
        return fail("unknown scheme '" + opts.scheme + "'");
    opts.config = raw ? *preset : scaledForSim(*preset);
    for (const ConfigEdit &edit : edits)
        edit(opts.config);
    if (opts.traceDigest && opts.config.trace.categories.empty())
        opts.config.trace.categories = "all";
    if (opts.config.l2Tlb.entries % opts.config.l2Tlb.ways != 0)
        opts.config.l2Tlb.ways = 1; // keep arbitrary sizes legal
    return CliParse{opts, ""};
}

} // namespace idyll
