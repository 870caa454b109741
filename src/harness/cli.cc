#include "harness/cli.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "harness/runner.hh"
#include "sim/trace.hh"

namespace idyll
{

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
cliUsage()
{
    return "usage: idyll_sim [--app NAME] [--scheme NAME] [--gpus N]\n"
           "                 [--cus N] [--walkers N] [--l2tlb N]\n"
           "                 [--l2-subentry N] [--dead-evict]\n"
           "                 [--mmu-cache ExW[,ExW...]]\n"
           "                 [--threshold N] [--page-size 4k|2m]\n"
           "                 [--irmb BxO] [--dir-bits M] [--scale F]\n"
           "                 [--jobs N] [--shards N] [--seed N]\n"
           "                 [--raw] [--stats]\n"
           "                 [--oracle] [--faults PLAN] [--unplug PLAN]\n"
           "                 [--retry-timeout N] [--watchdog-events N]\n"
           "                 [--watchdog-ticks N] [--digest]\n"
           "                 [--trace CATS] [--trace-out FILE]\n"
           "                 [--trace-digest] [--latency]\n"
           "                 [--sample-every N] [--sample-records N]\n"
           "                 [--sample-out FILE] [--json FILE]\n"
           "                 [--host-stats] [--progress[=SECS]]\n"
           "                 [--list-apps] [--help]\n"
           "                 [--serve] [--serve-window N]\n"
           "                 [--serve-warmup N] [--serve-windows N]\n"
           "                 [--storm-every N] [--storm-shift N]\n"
           "                 [--bench-out FILE]\n"
           "                 [--chaos SEED,SECONDS] [--chaos-trials N]\n"
           "                 [--chaos-out FILE]\n"
           "trace categories: all or csv of "
           "tlb,irmb,dir,walk,mig,inval,fault,net\n"
           "schemes: baseline only-lazy only-dir idyll inmem zero\n"
           "         replication transfw idyll+transfw idyll+dead\n"
           "         idyll+sub\n"
           "--mmu-cache sizes the per-level MMU caches from the leaf\n"
           "(L1) up, e.g. 64x8,32x4,16x4,8x4; the last entry repeats\n"
           "for deeper levels. --l2-subentry N shares one L2 TLB tag\n"
           "across N contiguous pages; --dead-evict enables dead-\n"
           "entry-aware replacement in the L2 TLB and MMU caches\n"
           "--shards N runs the event core on N shards (1 = serial);\n"
           "shards take precedence over --jobs: --jobs is clamped so\n"
           "shards x jobs fits the machine's hardware threads\n";
}

bool
parseUnsigned(const std::string &text, std::uint64_t &out)
{
    // strtoull skips blanks and negates a leading '-': demand a digit.
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text.c_str(), &end, 10);
    return errno == 0 && *end == '\0';
}

bool
parseDouble(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return *end == '\0' && std::isfinite(out);
}

CliParse
parseCli(const std::vector<std::string> &args)
{
    CliOptions opts;
    bool raw = false;
    std::string schemeName = "baseline";

    auto fail = [](const std::string &msg) {
        return CliParse{std::nullopt, msg, ""};
    };

    std::size_t i = 0;
    auto next = [&](const std::string &flag,
                    std::string &out) -> bool {
        if (i + 1 >= args.size())
            return false;
        out = args[++i];
        (void)flag;
        return true;
    };

    // Deferred overrides so the scheme preset is resolved first.
    struct Overrides
    {
        std::optional<std::uint64_t> gpus, cus, walkers, l2tlb,
            threshold, dirBits, seed;
        std::optional<std::uint32_t> pageBits, irmbBases, irmbOffsets;
        bool oracle = false;
        std::optional<std::string> faults, unplug;
        std::optional<std::uint64_t> retryTimeout, wdEvents, wdTicks;
        std::optional<std::string> trace, traceOut;
        bool latency = false;
        bool hostStats = false;
        std::optional<double> progressSecs;
        std::optional<std::uint64_t> sampleEvery, sampleRecords;
        std::optional<std::string> sampleOut;
        std::optional<std::uint32_t> shards;
        std::optional<std::uint64_t> l2SubEntries;
        bool deadEvict = false;
        std::vector<MmuCacheLevelConfig> mmuCache;
    } ov;

    for (; i < args.size(); ++i) {
        const std::string &arg = args[i];
        std::string value;
        std::uint64_t n = 0;
        if (arg == "--help") {
            opts.help = true;
        } else if (arg == "--list-apps") {
            opts.listApps = true;
        } else if (arg == "--stats") {
            opts.dumpStats = true;
        } else if (arg == "--raw") {
            raw = true;
        } else if (arg == "--app") {
            if (!next(arg, opts.app))
                return fail("--app needs a value");
        } else if (arg == "--scheme") {
            if (!next(arg, schemeName))
                return fail("--scheme needs a value");
        } else if (arg == "--scale") {
            if (!next(arg, value) || !parseDouble(value, opts.scale) ||
                opts.scale <= 0.0)
                return fail("--scale needs a positive number");
        } else if (arg == "--jobs") {
            if (!next(arg, value) || !parseUnsigned(value, n))
                return fail("--jobs needs a non-negative integer");
            opts.jobs = static_cast<unsigned>(n);
        } else if (arg == "--shards") {
            if (!next(arg, value) || !parseUnsigned(value, n) || !n)
                return fail("--shards needs a positive integer");
            ov.shards = static_cast<std::uint32_t>(n);
        } else if (arg == "--gpus") {
            if (!next(arg, value) || !parseUnsigned(value, n) || !n)
                return fail("--gpus needs a positive integer");
            ov.gpus = n;
        } else if (arg == "--cus") {
            if (!next(arg, value) || !parseUnsigned(value, n) || !n)
                return fail("--cus needs a positive integer");
            ov.cus = n;
        } else if (arg == "--walkers") {
            if (!next(arg, value) || !parseUnsigned(value, n) || !n)
                return fail("--walkers needs a positive integer");
            ov.walkers = n;
        } else if (arg == "--l2tlb") {
            if (!next(arg, value) || !parseUnsigned(value, n) || !n)
                return fail("--l2tlb needs a positive integer");
            ov.l2tlb = n;
        } else if (arg == "--l2-subentry") {
            if (!next(arg, value) || !parseUnsigned(value, n) || !n)
                return fail("--l2-subentry needs a positive integer");
            ov.l2SubEntries = n;
        } else if (arg == "--dead-evict") {
            ov.deadEvict = true;
        } else if (arg == "--mmu-cache") {
            if (!next(arg, value))
                return fail("--mmu-cache needs ExW[,ExW...], e.g. "
                            "64x8,32x4,16x4,8x4");
            std::vector<MmuCacheLevelConfig> levels;
            std::stringstream ss(value);
            std::string item;
            while (std::getline(ss, item, ',')) {
                const auto x = item.find('x');
                std::uint64_t e = 0, w = 0;
                if (x == std::string::npos ||
                    !parseUnsigned(item.substr(0, x), e) ||
                    !parseUnsigned(item.substr(x + 1), w) || !e || !w)
                    return fail("--mmu-cache needs ExW[,ExW...], e.g. "
                                "64x8,32x4,16x4,8x4");
                levels.push_back(
                    MmuCacheLevelConfig{static_cast<std::uint32_t>(e),
                                        static_cast<std::uint32_t>(w)});
            }
            if (levels.empty())
                return fail("--mmu-cache needs at least one ExW level");
            ov.mmuCache = std::move(levels);
        } else if (arg == "--threshold") {
            if (!next(arg, value) || !parseUnsigned(value, n) || !n)
                return fail("--threshold needs a positive integer");
            ov.threshold = n;
        } else if (arg == "--dir-bits") {
            if (!next(arg, value) || !parseUnsigned(value, n) || !n)
                return fail("--dir-bits needs a positive integer");
            ov.dirBits = n;
        } else if (arg == "--seed") {
            if (!next(arg, value) || !parseUnsigned(value, n))
                return fail("--seed needs an integer");
            ov.seed = n;
        } else if (arg == "--page-size") {
            if (!next(arg, value))
                return fail("--page-size needs 4k or 2m");
            if (value == "4k" || value == "4K")
                ov.pageBits = 12;
            else if (value == "2m" || value == "2M")
                ov.pageBits = 21;
            else
                return fail("--page-size must be 4k or 2m");
        } else if (arg == "--oracle") {
            ov.oracle = true;
        } else if (arg == "--digest") {
            opts.digest = true;
        } else if (arg == "--trace") {
            if (!next(arg, value))
                return fail("--trace needs categories, e.g. all or "
                            "tlb,irmb,inval");
            if (!parseTraceCategories(value))
                return fail("unknown trace category in '" + value + "'");
            ov.trace = value;
        } else if (arg == "--trace-out") {
            if (!next(arg, value))
                return fail("--trace-out needs a file path");
            ov.traceOut = value;
        } else if (arg == "--trace-digest") {
            opts.traceDigest = true;
        } else if (arg == "--latency") {
            ov.latency = true;
        } else if (arg == "--host-stats") {
            ov.hostStats = true;
        } else if (arg == "--progress" ||
                   arg.rfind("--progress=", 0) == 0) {
            double secs = 5.0;
            if (arg.size() > 10) {
                if (!parseDouble(arg.substr(11), secs) || secs <= 0.0)
                    return fail("--progress=SECS needs a positive "
                                "number");
            }
            ov.progressSecs = secs;
        } else if (arg == "--sample-every") {
            if (!next(arg, value) || !parseUnsigned(value, n) || !n)
                return fail("--sample-every needs a positive integer");
            ov.sampleEvery = n;
        } else if (arg == "--sample-records") {
            if (!next(arg, value) || !parseUnsigned(value, n) || !n)
                return fail("--sample-records needs a positive integer");
            ov.sampleRecords = n;
        } else if (arg == "--sample-out") {
            if (!next(arg, value))
                return fail("--sample-out needs a file path");
            ov.sampleOut = value;
        } else if (arg == "--json") {
            if (!next(arg, opts.jsonOut))
                return fail("--json needs a file path");
        } else if (arg == "--serve") {
            opts.serve = true;
        } else if (arg == "--serve-window") {
            if (!next(arg, value) || !parseUnsigned(value, n) || !n)
                return fail("--serve-window needs a positive integer");
            opts.serveWindow = n;
        } else if (arg == "--serve-warmup") {
            if (!next(arg, value) || !parseUnsigned(value, n))
                return fail("--serve-warmup needs an integer");
            opts.serveWarmup = static_cast<std::uint32_t>(n);
        } else if (arg == "--serve-windows") {
            if (!next(arg, value) || !parseUnsigned(value, n))
                return fail("--serve-windows needs an integer");
            opts.serveWindows = static_cast<std::uint32_t>(n);
        } else if (arg == "--storm-every") {
            if (!next(arg, value) || !parseUnsigned(value, n))
                return fail("--storm-every needs an integer");
            opts.stormEvery = static_cast<std::uint32_t>(n);
        } else if (arg == "--storm-shift") {
            if (!next(arg, value) || !parseUnsigned(value, n))
                return fail("--storm-shift needs an integer");
            opts.stormShift = n;
        } else if (arg == "--bench-out") {
            if (!next(arg, opts.benchOut))
                return fail("--bench-out needs a file path");
        } else if (arg == "--faults") {
            if (!next(arg, value))
                return fail("--faults needs a plan, e.g. "
                            "inval.delay=800@0.3");
            ov.faults = value;
        } else if (arg == "--unplug") {
            if (!next(arg, value))
                return fail("--unplug needs a plan, e.g. "
                            "g1@60000/140000");
            ov.unplug = value;
        } else if (arg == "--chaos") {
            if (!next(arg, value))
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
        } else if (arg == "--chaos-trials") {
            if (!next(arg, value) || !parseUnsigned(value, n))
                return fail("--chaos-trials needs an integer");
            opts.chaosTrials = n;
        } else if (arg == "--chaos-out") {
            if (!next(arg, opts.chaosOut))
                return fail("--chaos-out needs a file path");
        } else if (arg == "--retry-timeout") {
            if (!next(arg, value) || !parseUnsigned(value, n) || !n)
                return fail("--retry-timeout needs a positive integer");
            ov.retryTimeout = n;
        } else if (arg == "--watchdog-events") {
            if (!next(arg, value) || !parseUnsigned(value, n) || !n)
                return fail("--watchdog-events needs a positive integer");
            ov.wdEvents = n;
        } else if (arg == "--watchdog-ticks") {
            if (!next(arg, value) || !parseUnsigned(value, n) || !n)
                return fail("--watchdog-ticks needs a positive integer");
            ov.wdTicks = n;
        } else if (arg == "--irmb") {
            if (!next(arg, value))
                return fail("--irmb needs BxO, e.g. 32x16");
            const auto x = value.find('x');
            std::uint64_t b = 0, o = 0;
            if (x == std::string::npos ||
                !parseUnsigned(value.substr(0, x), b) ||
                !parseUnsigned(value.substr(x + 1), o) || !b || !o)
                return fail("--irmb needs BxO, e.g. 32x16");
            ov.irmbBases = static_cast<std::uint32_t>(b);
            ov.irmbOffsets = static_cast<std::uint32_t>(o);
        } else {
            return fail("unknown argument '" + arg + "'");
        }
    }

    auto preset = schemeByName(schemeName);
    if (!preset)
        return fail("unknown scheme '" + schemeName + "'");
    opts.scheme = schemeName;
    opts.config = raw ? *preset : scaledForSim(*preset);

    if (ov.gpus)
        opts.config.numGpus = static_cast<std::uint32_t>(*ov.gpus);
    if (ov.cus)
        opts.config.cusPerGpu = static_cast<std::uint32_t>(*ov.cus);
    if (ov.walkers)
        opts.config.gmmu.walkerThreads =
            static_cast<std::uint32_t>(*ov.walkers);
    if (ov.l2tlb)
        opts.config.l2Tlb.entries =
            static_cast<std::uint32_t>(*ov.l2tlb);
    if (ov.l2SubEntries)
        opts.config.l2Tlb.subEntries =
            static_cast<std::uint32_t>(*ov.l2SubEntries);
    if (ov.deadEvict) {
        opts.config.l2Tlb.deadEntryEviction = true;
        opts.config.gmmu.deadEntryEviction = true;
    }
    if (!ov.mmuCache.empty())
        opts.config.gmmu.mmuCache = std::move(ov.mmuCache);
    if (ov.threshold)
        opts.config.accessCounterThreshold =
            static_cast<std::uint32_t>(*ov.threshold);
    if (ov.dirBits)
        opts.config.directoryBits =
            static_cast<std::uint32_t>(*ov.dirBits);
    if (ov.seed)
        opts.config.seed = *ov.seed;
    if (ov.shards)
        opts.config.shards = *ov.shards;
    if (ov.pageBits)
        opts.config.pageBits = *ov.pageBits;
    if (ov.irmbBases) {
        opts.config.irmb.bases = *ov.irmbBases;
        opts.config.irmb.offsetsPerBase = *ov.irmbOffsets;
    }
    if (ov.oracle)
        opts.config.integrity.oracle = true;
    if (ov.faults)
        opts.config.integrity.faultPlan = *ov.faults;
    if (ov.unplug)
        opts.config.integrity.unplugPlan = *ov.unplug;
    if (ov.retryTimeout)
        opts.config.integrity.invalRetryTimeout = *ov.retryTimeout;
    if (ov.wdEvents)
        opts.config.integrity.watchdogMaxIdleEvents = *ov.wdEvents;
    if (ov.wdTicks)
        opts.config.integrity.watchdogMaxIdleTicks = *ov.wdTicks;
    if (ov.trace)
        opts.config.trace.categories = *ov.trace;
    if (ov.traceOut)
        opts.config.trace.jsonlPath = *ov.traceOut;
    if (opts.traceDigest && opts.config.trace.categories.empty())
        opts.config.trace.categories = "all";
    if (ov.latency)
        opts.config.latency.enabled = true;
    if (ov.hostStats)
        opts.config.hostStats = true;
    if (ov.progressSecs)
        opts.config.progressSecs = *ov.progressSecs;
    if (ov.sampleEvery)
        opts.config.sampler.everyCycles = *ov.sampleEvery;
    if (ov.sampleRecords)
        opts.config.sampler.maxRecords =
            static_cast<std::uint32_t>(*ov.sampleRecords);
    if (ov.sampleOut)
        opts.config.sampler.jsonPath = *ov.sampleOut;

    if (opts.config.l2Tlb.entries % opts.config.l2Tlb.ways != 0)
        opts.config.l2Tlb.ways = 1; // keep arbitrary sizes legal

    // --shards wins over --jobs: a sharded run occupies `shards`
    // threads per sweep job, so keep shards * jobs within the machine.
    std::string warning;
    if (opts.config.shards > 1) {
        const unsigned hw =
            std::max(1u, std::thread::hardware_concurrency());
        bool clamped = false;
        const unsigned requested = opts.jobs ? opts.jobs : hw;
        const unsigned jobs = clampJobsForShards(
            requested, opts.config.shards, hw, &clamped);
        if (clamped || opts.jobs == 0)
            opts.jobs = jobs;
        if (clamped && requested != hw) {
            warning = "--shards " +
                      std::to_string(opts.config.shards) +
                      " takes precedence over --jobs " +
                      std::to_string(requested) + ": clamped to " +
                      std::to_string(jobs) + " job(s) so shards x jobs "
                      "fits " + std::to_string(hw) + " hardware "
                      "thread(s)";
        }
    }

    return CliParse{opts, "", warning};
}

unsigned
clampJobsForShards(unsigned jobs, std::uint32_t shards, unsigned hw,
                   bool *warned)
{
    if (warned)
        *warned = false;
    if (hw == 0)
        hw = 1;
    if (jobs == 0)
        jobs = 1;
    if (shards <= 1)
        return jobs;
    const std::uint64_t demand =
        static_cast<std::uint64_t>(jobs) * shards;
    if (demand <= hw)
        return jobs;
    const unsigned clamped =
        static_cast<unsigned>(hw / shards ? hw / shards : 1);
    if (clamped != jobs && warned)
        *warned = true;
    return clamped;
}

} // namespace idyll
