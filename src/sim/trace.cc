#include "sim/trace.hh"

#include <sstream>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace idyll
{

const char *
traceCategoryName(TraceCategory cat)
{
    switch (cat) {
      case TraceCategory::Tlb:
        return "tlb";
      case TraceCategory::Irmb:
        return "irmb";
      case TraceCategory::Directory:
        return "dir";
      case TraceCategory::Walk:
        return "walk";
      case TraceCategory::Migration:
        return "mig";
      case TraceCategory::Inval:
        return "inval";
      case TraceCategory::Fault:
        return "fault";
      case TraceCategory::Network:
        return "net";
    }
    return "?";
}

const char *
traceOpName(TraceOp op)
{
    switch (op) {
      case TraceOp::TlbHit:
        return "tlb.hit";
      case TraceOp::TlbMiss:
        return "tlb.miss";
      case TraceOp::TlbFill:
        return "tlb.fill";
      case TraceOp::TlbEvict:
        return "tlb.evict";
      case TraceOp::TlbShootdown:
        return "tlb.shootdown";
      case TraceOp::IrmbInsert:
        return "irmb.insert";
      case TraceOp::IrmbMerge:
        return "irmb.merge";
      case TraceOp::IrmbDup:
        return "irmb.dup";
      case TraceOp::IrmbHit:
        return "irmb.hit";
      case TraceOp::IrmbElide:
        return "irmb.elide";
      case TraceOp::IrmbEvict:
        return "irmb.evict";
      case TraceOp::IrmbFlush:
        return "irmb.flush";
      case TraceOp::IrmbDrain:
        return "irmb.drain";
      case TraceOp::DirSet:
        return "dir.set";
      case TraceOp::DirClear:
        return "dir.clear";
      case TraceOp::DirTargets:
        return "dir.targets";
      case TraceOp::WalkStart:
        return "walk.start";
      case TraceOp::WalkDone:
        return "walk.done";
      case TraceOp::MmuCacheHit:
        return "walk.mmu_cache_hit";
      case TraceOp::MmuCacheMiss:
        return "walk.mmu_cache_miss";
      case TraceOp::MmuCacheStale:
        return "walk.mmu_cache_stale";
      case TraceOp::MigRequest:
        return "mig.request";
      case TraceOp::MigStart:
        return "mig.start";
      case TraceOp::MigTransfer:
        return "mig.transfer";
      case TraceOp::MigDone:
        return "mig.done";
      case TraceOp::InvalSend:
        return "inval.send";
      case TraceOp::InvalRecv:
        return "inval.recv";
      case TraceOp::InvalAck:
        return "inval.ack";
      case TraceOp::InvalRoundDone:
        return "inval.round";
      case TraceOp::InvalRetry:
        return "inval.retry";
      case TraceOp::FaultRaised:
        return "fault.raised";
      case TraceOp::FaultResolved:
        return "fault.resolved";
      case TraceOp::MapInstall:
        return "map.install";
      case TraceOp::MapDrop:
        return "map.drop";
      case TraceOp::NetSend:
        return "net.send";
    }
    return "?";
}

std::optional<std::uint32_t>
parseTraceCategories(const std::string &spec)
{
    std::uint32_t mask = 0;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string name = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (name.empty())
            continue;
        if (name == "all") {
            mask |= kTraceAll;
            continue;
        }
        bool known = false;
        for (std::uint32_t c = 0; c < kNumTraceCategories; ++c) {
            const auto cat = static_cast<TraceCategory>(c);
            if (name == traceCategoryName(cat)) {
                mask |= traceBit(cat);
                known = true;
                break;
            }
        }
        if (!known)
            return std::nullopt;
    }
    return mask;
}

// --------------------------------------------------------------------
// JsonlTraceSink
// --------------------------------------------------------------------

JsonlTraceSink::JsonlTraceSink(const std::string &path)
    : _file(std::make_unique<std::ofstream>(path))
{
    if (!*_file)
        fatal("cannot open trace output file '", path, "'");
    _os = _file.get();
}

namespace
{

void
formatTraceLine(std::ostream &os, const TraceEvent &event)
{
    os << "{\"t\":" << event.tick << ",\"cat\":\""
       << traceCategoryName(traceCategoryOf(event.op)) << "\",\"op\":\""
       << traceOpName(event.op) << "\",\"gpu\":" << event.gpu
       << ",\"vpn\":" << event.vpn;
    if (event.a)
        os << ",\"a\":" << event.a;
    if (event.b)
        os << ",\"b\":" << event.b;
    if (event.c)
        os << ",\"c\":" << event.c;
    os << "}\n";
}

} // namespace

void
JsonlTraceSink::enableSharding(std::uint32_t shards)
{
    if (shards >= 2)
        _lanes = OrderedLanes<Line, &Line::tick>(shards);
}

void
JsonlTraceSink::record(const TraceEvent &event)
{
    if (_lanes.laneCount() == 0) {
        formatTraceLine(*_os, event);
        return;
    }
    std::ostringstream line;
    formatTraceLine(line, event);
    const std::uint32_t s = EventQueue::currentShard();
    _lanes.push(s < _lanes.laneCount() ? s : 0, {event.tick, line.str()});
}

void
JsonlTraceSink::mergeWindow()
{
    _lanes.drainBelow(kMaxTick,
                      [this](const Line &line) { *_os << line.text; });
}

void
JsonlTraceSink::flush()
{
    mergeWindow();
    _os->flush();
}

// --------------------------------------------------------------------
// TraceDigestSink
// --------------------------------------------------------------------

TraceDigestSink::TraceDigestSink()
{
    // One lane per possible shard: the host's + kMaxGpus.
    _lanes.resize(kMaxGpus + 1);
}

TraceDigestSink::Lane &
TraceDigestSink::lane()
{
    const std::uint32_t s = EventQueue::currentShard();
    return _lanes[s < _lanes.size() ? s : 0];
}

void
TraceDigestSink::record(const TraceEvent &event)
{
    // Chain the fields through mix64 so every field (including zeros)
    // contributes; XOR-accumulate so event order does not matter. Only
    // integral fields enter the hash, so digests are portable across
    // compilers and build types.
    std::uint64_t h = mix64(event.tick ^ 0x49444C4Cull); // "IDLL"
    h = mix64(h ^ static_cast<std::uint64_t>(event.op));
    h = mix64(h ^ event.gpu);
    h = mix64(h ^ event.vpn);
    h = mix64(h ^ event.a);
    h = mix64(h ^ event.b);
    h = mix64(h ^ event.c);

    const auto cat =
        static_cast<std::uint32_t>(traceCategoryOf(event.op));
    Lane &l = lane();
    ++l.counts[cat];
    l.hashes[cat] ^= h;
    ++l.opCounts[static_cast<std::uint32_t>(event.op)];
    ++l.total;
    l.totalHash ^= h;
}

std::uint64_t
TraceDigestSink::count(TraceCategory cat) const
{
    const auto c = static_cast<std::uint32_t>(cat);
    std::uint64_t v = 0;
    for (const Lane &l : _lanes)
        v += l.counts[c];
    return v;
}

std::uint64_t
TraceDigestSink::hash(TraceCategory cat) const
{
    const auto c = static_cast<std::uint32_t>(cat);
    std::uint64_t v = 0;
    for (const Lane &l : _lanes)
        v ^= l.hashes[c];
    return v;
}

std::uint64_t
TraceDigestSink::opCount(TraceOp op) const
{
    const auto o = static_cast<std::uint32_t>(op);
    std::uint64_t v = 0;
    for (const Lane &l : _lanes)
        v += l.opCounts[o];
    return v;
}

std::uint64_t
TraceDigestSink::totalCount() const
{
    std::uint64_t v = 0;
    for (const Lane &l : _lanes)
        v += l.total;
    return v;
}

std::uint64_t
TraceDigestSink::totalHash() const
{
    std::uint64_t v = 0;
    for (const Lane &l : _lanes)
        v ^= l.totalHash;
    return v;
}

namespace
{

void
appendHex(std::ostream &os, std::uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    for (int shift = 60; shift >= 0; shift -= 4)
        os << digits[(value >> shift) & 0xF];
}

} // namespace

std::string
TraceDigestSink::canonicalText() const
{
    std::ostringstream os;
    os << "trace-digest v1\n";
    for (std::uint32_t c = 0; c < kNumTraceCategories; ++c) {
        const auto cat = static_cast<TraceCategory>(c);
        os << traceCategoryName(cat) << " count=" << count(cat)
           << " hash=";
        appendHex(os, hash(cat));
        os << "\n";
    }
    os << "all count=" << totalCount() << " hash=";
    appendHex(os, totalHash());
    os << "\n";
    return os.str();
}

std::string
TraceDigestSink::canonicalLine() const
{
    std::ostringstream os;
    os << "v1";
    for (std::uint32_t c = 0; c < kNumTraceCategories; ++c) {
        const auto cat = static_cast<TraceCategory>(c);
        os << " " << traceCategoryName(cat) << ":" << count(cat)
           << ":";
        appendHex(os, hash(cat));
    }
    os << " all:" << totalCount() << ":";
    appendHex(os, totalHash());
    return os.str();
}

} // namespace idyll
