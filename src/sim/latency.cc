#include "sim/latency.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace idyll
{

const char *
latencyPhaseName(LatencyPhase phase)
{
    switch (phase) {
      case LatencyPhase::L1Probe: return "l1-probe";
      case LatencyPhase::L2Probe: return "l2-probe";
      case LatencyPhase::IrmbProbe: return "irmb-probe";
      case LatencyPhase::MshrWait: return "mshr-wait";
      case LatencyPhase::PtwQueue: return "ptw-queue";
      case LatencyPhase::LocalWalk: return "local-walk";
      case LatencyPhase::FarFault: return "far-fault";
      case LatencyPhase::Network: return "network";
      case LatencyPhase::MigrationWait: return "migration-wait";
      case LatencyPhase::ShootdownStall: return "shootdown-stall";
    }
    return "?";
}

const char *
requestKindName(RequestKind kind)
{
    return kind == RequestKind::Demand ? "demand" : "invalidation";
}

// --- LogHistogram ----------------------------------------------------

std::uint32_t
LogHistogram::bucketIndex(std::uint64_t value)
{
    if (value < kLinear)
        return static_cast<std::uint32_t>(value);
    // Highest set bit is >= 6; split each power of two into
    // kSubBuckets by the next four bits below the leading one.
    const std::uint32_t msb =
        63u - static_cast<std::uint32_t>(std::countl_zero(value));
    const std::uint32_t sub =
        static_cast<std::uint32_t>((value >> (msb - 4)) & 0xF);
    return kLinear + (msb - 6) * kSubBuckets + sub;
}

std::uint64_t
LogHistogram::bucketFloor(std::uint32_t index)
{
    if (index < kLinear)
        return index;
    const std::uint32_t oct = (index - kLinear) / kSubBuckets;
    const std::uint32_t sub = (index - kLinear) % kSubBuckets;
    // Inverse of bucketIndex: leading one at (oct + 6), next four
    // bits equal to sub.
    return (static_cast<std::uint64_t>(kSubBuckets + sub))
           << (oct + 2);
}

void
LogHistogram::record(std::uint64_t value, std::uint64_t weight)
{
    if (weight == 0)
        return;
    if (_buckets.empty())
        _buckets.assign(kBuckets, 0);
    _buckets[bucketIndex(value)] += weight;
    _count += weight;
    _sum += value * weight;
    _min = std::min(_min, value);
    _max = std::max(_max, value);
}

std::uint64_t
LogHistogram::percentile(double p) const
{
    if (_count == 0)
        return 0;
    const double clamped = std::clamp(p, 0.0, 100.0);
    const std::uint64_t target = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(clamped / 100.0 *
                         static_cast<double>(_count))));
    std::uint64_t seen = 0;
    for (std::uint32_t i = 0; i < _buckets.size(); ++i) {
        seen += _buckets[i];
        if (seen >= target)
            return std::clamp(bucketFloor(i), _min, _max);
    }
    return _max;
}

void
LogHistogram::merge(const LogHistogram &other)
{
    if (other._count == 0)
        return;
    if (_buckets.empty())
        _buckets.assign(kBuckets, 0);
    for (std::uint32_t i = 0; i < kBuckets; ++i)
        _buckets[i] += other._buckets[i];
    _count += other._count;
    _sum += other._sum;
    _min = std::min(_min, other._min);
    _max = std::max(_max, other._max);
}

std::string
LogHistogram::toJson() const
{
    std::ostringstream os;
    os << "{\"count\":" << _count << ",\"sum\":" << _sum
       << ",\"min\":" << min() << ",\"max\":" << _max
       << ",\"p50\":" << percentile(50) << ",\"p95\":"
       << percentile(95) << ",\"p99\":" << percentile(99) << "}";
    return os.str();
}

// --- LatencyScoreboard -----------------------------------------------

LatencyScoreboard::LatencyScoreboard(EventQueue &clock,
                                     std::uint32_t numGpus)
    : _numGpus(numGpus), _clock(clock),
      _log(static_cast<std::size_t>(numGpus) + 1), _agg(numGpus)
{
    _onViolation = [](const std::string &msg) {
        panic("latency scoreboard: ", msg);
    };
    _log.setViolationHandler([this](const std::string &msg) {
        ++_violations;
        _onViolation("op-log " + msg);
    });
}

// --- op log ----------------------------------------------------------

std::size_t
LatencyScoreboard::laneRank(GpuId exec) const
{
    if (exec == kHostId)
        return 0;
    IDYLL_ASSERT(exec < _numGpus, "unknown executor node ", exec);
    return 1 + static_cast<std::size_t>(exec);
}

void
LatencyScoreboard::logOp(GpuId exec, LatOp op)
{
    op.execTick = _clock.now(); // routes to the executing shard
    _log.push(laneRank(exec), op);
    // Sharded runs flush at every rendezvous (single-writer lanes must
    // not be compacted from a worker thread); serial runs bound the
    // backlog here instead. Ops AT the current tick may still gain
    // same-tick peers in other lanes, so they stay queued.
    if (!_clock.router() && ++_pendingOps >= kFlushThreshold) {
        _pendingOps = _log.drainBelow(
            op.execTick, [this](const LatOp &o) { applyOp(o); });
    }
}

void
LatencyScoreboard::applyOp(const LatOp &op)
{
    switch (op.code) {
      case LatOp::Code::Begin:
        applyBegin(op.kind, op.gpu, op.vpn, op.tick,
                   static_cast<std::uint32_t>(op.a));
        break;
      case LatOp::Code::Enter:
        applyEnter(op.kind, op.gpu, op.vpn, op.phase, op.tick);
        break;
      case LatOp::Code::DemandMissProbed:
        applyDemandMissProbed(op.gpu, op.vpn,
                              static_cast<Cycles>(op.a), op.tick);
        break;
      case LatOp::Code::Finish:
        applyFinish(op.kind, op.gpu, op.vpn, op.tick,
                    static_cast<std::uint32_t>(op.a));
        break;
      case LatOp::Code::Drop:
        _tokens.erase(key(op.kind, op.gpu, op.vpn));
        break;
      case LatOp::Code::Abort:
        if (_tokens.erase(key(op.kind, op.gpu, op.vpn))) {
            ++_abortedTotal[static_cast<std::size_t>(op.kind)];
            ++_windowAborted[static_cast<std::size_t>(op.kind)];
        }
        break;
      case LatOp::Code::NoteWalk: {
        const std::uint32_t depth = std::min(
            static_cast<std::uint32_t>(op.a), kMaxWalkDepth);
        ++_walkDepthCount[depth];
        _walkDepthCycles[depth] += op.b;
        break;
      }
    }
}

void
LatencyScoreboard::flushOps()
{
    _pendingOps = _log.drainBelow(
        kMaxTick, [this](const LatOp &o) { applyOp(o); });
}

void
LatencyScoreboard::setViolationHandler(
    std::function<void(const std::string &)> handler)
{
    _onViolation = std::move(handler);
}

std::uint64_t
LatencyScoreboard::key(RequestKind kind, GpuId gpu, Vpn vpn)
{
    // kind in bit 63, gpu in bits 62..52, vpn below. VPNs in this
    // simulator are far below 2^52 and GPU counts far below 2^11.
    return (static_cast<std::uint64_t>(kind) << 63) |
           (static_cast<std::uint64_t>(gpu & 0x7FF) << 52) |
           (vpn & 0xFFFFFFFFFFFFFull);
}

LatencyScoreboard::Token *
LatencyScoreboard::find(RequestKind kind, GpuId gpu, Vpn vpn)
{
    const auto it = _tokens.find(key(kind, gpu, vpn));
    return it == _tokens.end() ? nullptr : &it->second;
}

const LatencyScoreboard::Token *
LatencyScoreboard::find(RequestKind kind, GpuId gpu, Vpn vpn) const
{
    const auto it = _tokens.find(key(kind, gpu, vpn));
    return it == _tokens.end() ? nullptr : &it->second;
}

void
LatencyScoreboard::begin(GpuId exec, RequestKind kind, GpuId gpu,
                         Vpn vpn, Tick now, std::uint32_t tag)
{
    LatOp op{};
    op.code = LatOp::Code::Begin;
    op.kind = kind;
    op.gpu = gpu;
    op.vpn = vpn;
    op.tick = now;
    op.a = tag;
    logOp(exec, op);
}

void
LatencyScoreboard::applyBegin(RequestKind kind, GpuId gpu, Vpn vpn,
                              Tick now, std::uint32_t tag)
{
    const std::uint64_t k = key(kind, gpu, vpn);
    if (auto it = _tokens.find(k); it != _tokens.end()) {
        // Same tag: a secondary miss / retry rides the original
        // token. A different tag supersedes an abandoned round whose
        // completion never arrived (dropped ack): start over.
        if (it->second.tag == tag)
            return;
        _tokens.erase(it);
    }
    Token tok;
    tok.start = now;
    tok.last = now;
    tok.tag = tag;
    tok.phase = kind == RequestKind::Demand ? LatencyPhase::L1Probe
                                            : LatencyPhase::Network;
    _tokens.emplace(k, tok);
}

bool
LatencyScoreboard::active(RequestKind kind, GpuId gpu, Vpn vpn) const
{
    syncLog();
    return find(kind, gpu, vpn) != nullptr;
}

void
LatencyScoreboard::enter(GpuId exec, RequestKind kind, GpuId gpu,
                         Vpn vpn, LatencyPhase phase, Tick tick)
{
    LatOp op{};
    op.code = LatOp::Code::Enter;
    op.kind = kind;
    op.phase = phase;
    op.gpu = gpu;
    op.vpn = vpn;
    op.tick = tick;
    logOp(exec, op);
}

void
LatencyScoreboard::applyEnter(RequestKind kind, GpuId gpu, Vpn vpn,
                              LatencyPhase phase, Tick tick)
{
    Token *tok = find(kind, gpu, vpn);
    if (!tok)
        return;
    const Tick at = std::max(tick, tok->last);
    tok->spans[static_cast<std::size_t>(tok->phase)] += at - tok->last;
    tok->last = at;
    tok->phase = phase;
}

void
LatencyScoreboard::demandMissProbed(GpuId exec, GpuId gpu, Vpn vpn,
                                    Cycles l1Latency, Tick now)
{
    LatOp op{};
    op.code = LatOp::Code::DemandMissProbed;
    op.kind = RequestKind::Demand;
    op.gpu = gpu;
    op.vpn = vpn;
    op.tick = now;
    op.a = l1Latency;
    logOp(exec, op);
}

void
LatencyScoreboard::applyDemandMissProbed(GpuId gpu, Vpn vpn,
                                         Cycles l1Latency, Tick now)
{
    Token *tok = find(RequestKind::Demand, gpu, vpn);
    if (!tok || tok->phase != LatencyPhase::L1Probe)
        return;
    const Tick l1End =
        std::min(now, std::max(tok->last, tok->start + l1Latency));
    applyEnter(RequestKind::Demand, gpu, vpn, LatencyPhase::L2Probe,
               l1End);
    applyEnter(RequestKind::Demand, gpu, vpn, LatencyPhase::IrmbProbe,
               now);
}

void
LatencyScoreboard::finish(GpuId exec, RequestKind kind, GpuId gpu,
                          Vpn vpn, Tick now, std::uint32_t tag)
{
    LatOp op{};
    op.code = LatOp::Code::Finish;
    op.kind = kind;
    op.gpu = gpu;
    op.vpn = vpn;
    op.tick = now;
    op.a = tag;
    logOp(exec, op);
}

void
LatencyScoreboard::applyFinish(RequestKind kind, GpuId gpu, Vpn vpn,
                               Tick now, std::uint32_t tag)
{
    const std::uint64_t k = key(kind, gpu, vpn);
    const auto it = _tokens.find(k);
    if (it == _tokens.end())
        return;
    Token &tok = it->second;
    if (tok.tag != tag)
        return; // stale completion for an older round
    const Tick at = std::max(now, tok.last);
    tok.spans[static_cast<std::size_t>(tok.phase)] += at - tok.last;
    const std::uint64_t total = at - tok.start;
    std::uint64_t sum = 0;
    for (const auto s : tok.spans)
        sum += s;
    if (sum != total) {
        ++_violations;
        std::ostringstream msg;
        msg << requestKindName(kind) << " token gpu=" << gpu
            << " vpn=0x" << std::hex << vpn << std::dec
            << ": phase spans sum to " << sum
            << " cycles but end-to-end latency is " << total;
        _onViolation(msg.str());
    }

    Agg &agg = _agg[gpu][static_cast<std::size_t>(kind)];
    for (std::uint32_t p = 0; p < kNumLatencyPhases; ++p) {
        agg.phaseCycles[p] += tok.spans[p];
        if (tok.spans[p])
            agg.phaseHist[p].record(tok.spans[p]);
    }
    agg.total.record(total);
    agg.totalCycles += total;
    ++agg.count;
    _tokens.erase(it);
}

void
LatencyScoreboard::drop(GpuId exec, RequestKind kind, GpuId gpu,
                        Vpn vpn)
{
    LatOp op{};
    op.code = LatOp::Code::Drop;
    op.kind = kind;
    op.gpu = gpu;
    op.vpn = vpn;
    logOp(exec, op);
}

void
LatencyScoreboard::abort(GpuId exec, RequestKind kind, GpuId gpu,
                         Vpn vpn)
{
    LatOp op{};
    op.code = LatOp::Code::Abort;
    op.kind = kind;
    op.gpu = gpu;
    op.vpn = vpn;
    logOp(exec, op);
}

std::size_t
LatencyScoreboard::abortAllForGpu(GpuId gpu)
{
    // Unplug recovery runs serial-only; drain the log so every token
    // the walk must see exists, then mutate the table directly (which
    // keeps the synchronous return count).
    flushOps();
    // The key packs the GPU into bits 62..52 (see key()); walk the
    // token table and retire every key naming the dead device.
    const std::uint64_t want = static_cast<std::uint64_t>(gpu & 0x7FF);
    std::size_t aborted = 0;
    for (auto it = _tokens.begin(); it != _tokens.end();) {
        if (((it->first >> 52) & 0x7FF) == want) {
            const auto kind =
                static_cast<std::size_t>(it->first >> 63);
            ++_abortedTotal[kind];
            ++_windowAborted[kind];
            it = _tokens.erase(it);
            ++aborted;
        } else {
            ++it;
        }
    }
    return aborted;
}

void
LatencyScoreboard::noteWalk(GpuId gpu, std::uint32_t levels,
                            Cycles cycles)
{
    LatOp op{};
    op.code = LatOp::Code::NoteWalk;
    op.a = levels;
    op.b = cycles;
    logOp(gpu, op); // walks execute on the owning GMMU's node
}

void
LatencyScoreboard::skewForTest(RequestKind kind, GpuId gpu, Vpn vpn,
                               LatencyPhase phase, Cycles extra)
{
    // A test hook called at quiescent points: make the token table
    // current, then poison the span directly.
    flushOps();
    Token *tok = find(kind, gpu, vpn);
    IDYLL_ASSERT(tok, "skewForTest on a token that is not active");
    tok->spans[static_cast<std::size_t>(phase)] += extra;
}

void
LatencyWindow::merge(const LatencyWindow &other)
{
    for (std::uint32_t k = 0; k < kNumRequestKinds; ++k) {
        finished[k] += other.finished[k];
        totalCycles[k] += other.totalCycles[k];
        totalHist[k].merge(other.totalHist[k]);
        aborted[k] += other.aborted[k];
        for (std::uint32_t p = 0; p < kNumLatencyPhases; ++p)
            phaseCycles[k][p] += other.phaseCycles[k][p];
    }
}

LatencyWindow
LatencyScoreboard::snapshotAndReset()
{
    flushOps();
    LatencyWindow window;
    for (auto &per : _agg) {
        for (std::uint32_t k = 0; k < kNumRequestKinds; ++k) {
            Agg &agg = per[k];
            window.finished[k] += agg.count;
            window.totalCycles[k] += agg.totalCycles;
            window.totalHist[k].merge(agg.total);
            for (std::uint32_t p = 0; p < kNumLatencyPhases; ++p)
                window.phaseCycles[k][p] += agg.phaseCycles[p];
            agg = Agg{};
        }
    }
    window.aborted = _windowAborted;
    _windowAborted = {};
    return window;
}

std::uint64_t
LatencyScoreboard::aborted(RequestKind kind) const
{
    syncLog();
    return _abortedTotal[static_cast<std::size_t>(kind)];
}

std::size_t
LatencyScoreboard::activeTokens() const
{
    syncLog();
    return _tokens.size();
}

std::uint64_t
LatencyScoreboard::violations() const
{
    syncLog();
    return _violations;
}

std::uint64_t
LatencyScoreboard::finished(RequestKind kind) const
{
    syncLog();
    std::uint64_t n = 0;
    for (const auto &per : _agg)
        n += per[static_cast<std::size_t>(kind)].count;
    return n;
}

std::uint64_t
LatencyScoreboard::totalCycles(RequestKind kind) const
{
    syncLog();
    std::uint64_t n = 0;
    for (const auto &per : _agg)
        n += per[static_cast<std::size_t>(kind)].totalCycles;
    return n;
}

std::uint64_t
LatencyScoreboard::phaseCycles(RequestKind kind,
                               LatencyPhase phase) const
{
    syncLog();
    std::uint64_t n = 0;
    for (const auto &per : _agg)
        n += per[static_cast<std::size_t>(kind)]
                 .phaseCycles[static_cast<std::size_t>(phase)];
    return n;
}

const LogHistogram &
LatencyScoreboard::phaseHist(RequestKind kind,
                             LatencyPhase phase) const
{
    syncLog();
    static thread_local LogHistogram merged;
    merged = LogHistogram{};
    for (const auto &per : _agg)
        merged.merge(per[static_cast<std::size_t>(kind)]
                         .phaseHist[static_cast<std::size_t>(phase)]);
    return merged;
}

const LogHistogram &
LatencyScoreboard::totalHist(RequestKind kind) const
{
    syncLog();
    static thread_local LogHistogram merged;
    merged = LogHistogram{};
    for (const auto &per : _agg)
        merged.merge(per[static_cast<std::size_t>(kind)].total);
    return merged;
}

std::string
LatencyScoreboard::toJson() const
{
    syncLog();
    std::ostringstream os;
    os << "{";
    for (std::uint32_t ki = 0; ki < kNumRequestKinds; ++ki) {
        const auto kind = static_cast<RequestKind>(ki);
        if (ki)
            os << ",";
        os << "\"" << requestKindName(kind) << "\":{"
           << "\"count\":" << finished(kind)
           << ",\"totalCycles\":" << totalCycles(kind)
           << ",\"total\":" << totalHist(kind).toJson()
           << ",\"phases\":{";
        for (std::uint32_t p = 0; p < kNumLatencyPhases; ++p) {
            const auto phase = static_cast<LatencyPhase>(p);
            if (p)
                os << ",";
            os << "\"" << latencyPhaseName(phase) << "\":{"
               << "\"cycles\":" << phaseCycles(kind, phase)
               << ",\"hist\":" << phaseHist(kind, phase).toJson()
               << "}";
        }
        os << "},\"perGpu\":[";
        for (std::uint32_t g = 0; g < _numGpus; ++g) {
            const Agg &agg = _agg[g][ki];
            if (g)
                os << ",";
            os << "{\"gpu\":" << g << ",\"count\":" << agg.count
               << ",\"totalCycles\":" << agg.totalCycles
               << ",\"phaseCycles\":[";
            for (std::uint32_t p = 0; p < kNumLatencyPhases; ++p)
                os << (p ? "," : "") << agg.phaseCycles[p];
            os << "]}";
        }
        os << "]}";
    }
    os << ",\"walkDepth\":[";
    bool first = true;
    for (std::uint32_t d = 0; d <= kMaxWalkDepth; ++d) {
        if (!_walkDepthCount[d])
            continue;
        os << (first ? "" : ",") << "{\"levels\":" << d
           << ",\"count\":" << _walkDepthCount[d]
           << ",\"cycles\":" << _walkDepthCycles[d] << "}";
        first = false;
    }
    os << "]}";
    return os.str();
}

} // namespace idyll
