#include "sim/config.hh"

#include <sstream>

#include "sim/fault_domain.hh"
#include "sim/integrity.hh"
#include "sim/trace.hh"

namespace idyll
{

namespace
{

std::string
joinViolations(const std::vector<std::string> &violations)
{
    std::ostringstream os;
    os << "invalid configuration (" << violations.size()
       << " violation" << (violations.size() == 1 ? "" : "s") << "):";
    for (const std::string &v : violations)
        os << "\n  - " << v;
    return os.str();
}

} // namespace

ConfigError::ConfigError(std::vector<std::string> violations)
    : std::runtime_error(joinViolations(violations)),
      _violations(std::move(violations))
{
}

std::vector<std::string>
SystemConfig::check() const
{
    std::vector<std::string> bad;
    auto require = [&bad](bool ok, std::string msg) {
        if (!ok)
            bad.push_back(std::move(msg));
    };

    require(numGpus >= 1, "numGpus must be >= 1");
    require(numGpus <= kMaxGpus,
            "numGpus must be <= " + std::to_string(kMaxGpus) +
                ", got " + std::to_string(numGpus));
    require(shards >= 1, "shards must be >= 1");
    require(cusPerGpu >= 1, "cusPerGpu must be >= 1");
    require(warpsPerCu >= 1, "warpsPerCu must be >= 1");
    require(pageBits == 12 || pageBits == 21,
            "pageBits must be 12 (4 KB) or 21 (2 MB), got " +
                std::to_string(pageBits));
    require(l1Tlb.entries != 0 && l2Tlb.entries != 0,
            "TLB sizes must be nonzero");
    require(l1Tlb.ways != 0 && l2Tlb.ways != 0,
            "TLB associativity must be nonzero");
    require(l1Tlb.ways == 0 || l1Tlb.entries % l1Tlb.ways == 0,
            "L1 TLB entries must be a multiple of its ways");
    require(l2Tlb.ways == 0 || l2Tlb.entries % l2Tlb.ways == 0,
            "L2 TLB entries must be a multiple of its ways");
    require(l2MshrEntries != 0, "L2 MSHR file must be nonzero");
    require(gmmu.walkerThreads != 0,
            "GMMU needs at least one walker thread");
    require(gmmu.walkQueueEntries != 0,
            "GMMU walk queue must be nonzero");
    require(gmmu.walkQueueRetryLatency != 0,
            "walk-queue retry latency must be nonzero (a zero "
            "interval respins a full queue on the same tick forever)");
    require(!gmmu.mmuCache.empty(),
            "GMMU needs at least one MMU-cache level");
    for (std::size_t i = 0; i < gmmu.mmuCache.size(); ++i) {
        const MmuCacheLevelConfig &lvl = gmmu.mmuCache[i];
        const std::string name = "MMU cache level " +
                                 std::to_string(i + 1);
        require(lvl.entries != 0 && lvl.ways != 0,
                name + " must have nonzero entries and ways");
        require(lvl.ways == 0 || lvl.entries % lvl.ways == 0,
                name + " entries must be a multiple of its ways");
    }
    const auto powerOfTwo = [](std::uint32_t v) {
        return v != 0 && (v & (v - 1)) == 0;
    };
    require(powerOfTwo(l2Tlb.subEntries) && l2Tlb.subEntries <= 64,
            "L2 TLB sub-entries must be a power of two <= 64, got " +
                std::to_string(l2Tlb.subEntries));
    if (l2Tlb.subEntries > 1) {
        // The sub-entry array is block-tagged: blocks = entries /
        // subEntries, and the block array keeps the L2's associativity
        // (clamped to the block count), so the geometry must divide.
        const std::uint32_t blocks = l2Tlb.entries / l2Tlb.subEntries;
        require(l2Tlb.entries % l2Tlb.subEntries == 0 && blocks != 0,
                "L2 TLB entries must be a nonzero multiple of its "
                "sub-entries");
        const std::uint32_t blockWays = blocks < l2Tlb.ways
                                            ? blocks
                                            : l2Tlb.ways;
        require(blockWays == 0 || blocks % blockWays == 0,
                "L2 TLB blocks (entries / sub-entries) must be a "
                "multiple of its ways");
    }
    require(l1Tlb.subEntries == 1,
            "sub-entry sharing is only modeled in the shared L2 TLB");
    require(hostWalkers != 0,
            "UVM driver needs at least one host walker");
    require(directoryBits >= 1 && directoryBits <= 11,
            "directoryBits must be in [1, 11], got " +
                std::to_string(directoryBits));
    require(invalApply != InvalApply::Lazy ||
                (irmb.bases != 0 && irmb.offsetsPerBase != 0),
            "lazy invalidation requires a nonzero IRMB");
    // The IRMB stores 9-bit L1 index slots per merged entry; the
    // paper's layout caps a base at 16 offsets.
    require(irmb.offsetsPerBase <= 16,
            "IRMB offsets per base must be <= 16, got " +
                std::to_string(irmb.offsetsPerBase));
    require(vmCache.ways != 0 && vmCache.entries % vmCache.ways == 0,
            "VM-Cache entries must be a multiple of its ways");
    require(accessCounterThreshold != 0 ||
                migrationPolicy != MigrationPolicy::AccessCounter,
            "access counter threshold must be nonzero");
    require(interGpuLink.bandwidthBytesPerCycle > 0.0 &&
                hostLink.bandwidthBytesPerCycle > 0.0,
            "link bandwidth must be positive");
    require(integrity.traceDepth != 0,
            "integrity trace depth must be nonzero");
    require(parseTraceCategories(trace.categories).has_value(),
            "unknown trace category in '" + trace.categories + "'");
    require(sampler.everyCycles == 0 || sampler.maxRecords != 0,
            "sampler ring must hold at least one record");

    if (!integrity.faultPlan.empty()) {
        std::string err;
        auto plan = parseFaultPlan(integrity.faultPlan, &err);
        if (!plan) {
            bad.push_back("fault plan: " + err);
        } else if (plan->hasDrops() && integrity.invalRetryTimeout == 0) {
            bad.push_back("fault plan drops messages but "
                          "invalRetryTimeout is 0; dropped "
                          "invalidations would hang migrations");
        }
    }

    if (!integrity.unplugPlan.empty()) {
        std::string err;
        auto plan = parseUnplugPlan(integrity.unplugPlan, &err);
        if (!plan) {
            bad.push_back("unplug plan: " + err);
        } else {
            for (const UnplugEvent &ev : plan->events) {
                if (ev.gpu >= numGpus)
                    bad.push_back(
                        "unplug plan names gpu " +
                        std::to_string(ev.gpu) + " but only " +
                        std::to_string(numGpus) + " GPUs exist");
            }
            if (plan->events.size() >= numGpus)
                bad.push_back("unplug plan would kill every GPU; at "
                              "least one must survive to re-home "
                              "pages");
        }
        if (transFw.enabled)
            bad.push_back("unplug plan requires transFw disabled: "
                          "Trans-FW has no peer-timeout model, so a "
                          "probe stranded at a dead GPU would hang the "
                          "requester");
    }

    return bad;
}

void
SystemConfig::validate() const
{
    std::vector<std::string> bad = check();
    if (!bad.empty())
        throw ConfigError(std::move(bad));
}

std::string
SystemConfig::describe() const
{
    std::ostringstream os;
    os << "GPUs                     " << numGpus << "\n"
       << "CUs per GPU              " << cusPerGpu << "\n"
       << "Warp contexts per CU     " << warpsPerCu << "\n"
       << "Page size                " << (pageSize() >> 10) << " KB\n"
       << "L1 TLB                   " << l1Tlb.entries << " entries, "
       << l1Tlb.ways << "-way, " << l1Tlb.lookupLatency << "-cycle\n"
       << "L2 TLB                   " << l2Tlb.entries << " entries, "
       << l2Tlb.ways << "-way, " << l2Tlb.lookupLatency << "-cycle";
    if (l2Tlb.subEntries > 1)
        os << ", " << l2Tlb.subEntries << " sub-entries";
    if (l2Tlb.deadEntryEviction)
        os << ", dead-evict";
    os << "\n"
       << "Page table walkers       " << gmmu.walkerThreads << ", "
       << gmmu.perLevelLatency << " cycles/level\n"
       << "MMU caches               ";
    for (std::size_t i = 0; i < gmmu.mmuCache.size(); ++i) {
        os << (i ? " " : "") << "L" << (i + 1) << ":"
           << gmmu.mmuCache[i].entries << "x" << gmmu.mmuCache[i].ways;
    }
    if (gmmu.deadEntryEviction)
        os << " dead-evict";
    os << "\n"
       << "Page walk queue          " << gmmu.walkQueueEntries
       << " entries, retry " << gmmu.walkQueueRetryLatency
       << "-cycle\n"
       << "Access counter threshold " << accessCounterThreshold << "\n"
       << "Inter-GPU link           "
       << interGpuLink.bandwidthBytesPerCycle << " B/cy, "
       << interGpuLink.latency << "-cycle\n"
       << "CPU-GPU link             " << hostLink.bandwidthBytesPerCycle
       << " B/cy, " << hostLink.latency << "-cycle\n"
       << "IRMB                     " << irmb.bases << " merged entries x "
       << irmb.offsetsPerBase << " offsets = " << irmb.sizeBytes()
       << " bytes\n"
       << "In-PTE directory bits    " << directoryBits
       << " (PTE bits 62..52)\n"
       << "VM-Cache                 " << vmCache.entries << " entries, "
       << vmCache.ways << "-way\n";
    return os.str();
}

SystemConfig
SystemConfig::baseline()
{
    return SystemConfig{};
}

SystemConfig
SystemConfig::onlyLazy()
{
    SystemConfig cfg;
    cfg.invalFilter = InvalFilter::Broadcast;
    cfg.invalApply = InvalApply::Lazy;
    return cfg;
}

SystemConfig
SystemConfig::onlyDirectory()
{
    SystemConfig cfg;
    cfg.invalFilter = InvalFilter::InPteDirectory;
    cfg.invalApply = InvalApply::Immediate;
    return cfg;
}

SystemConfig
SystemConfig::idyllFull()
{
    SystemConfig cfg;
    cfg.invalFilter = InvalFilter::InPteDirectory;
    cfg.invalApply = InvalApply::Lazy;
    return cfg;
}

SystemConfig
SystemConfig::idyllInMem()
{
    SystemConfig cfg;
    cfg.invalFilter = InvalFilter::InMemDirectory;
    cfg.invalApply = InvalApply::Lazy;
    return cfg;
}

SystemConfig
SystemConfig::zeroLatencyInval()
{
    SystemConfig cfg;
    cfg.invalFilter = InvalFilter::Broadcast;
    cfg.invalApply = InvalApply::ZeroLatency;
    return cfg;
}

} // namespace idyll
