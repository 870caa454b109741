#include "sim/integrity.hh"

#include <algorithm>
#include <iostream>
#include <sstream>

#include "mem/pte.hh"
#include "sim/fault_domain.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace idyll
{

// ------------------------------------------------------------------
// Protocol trace
// ------------------------------------------------------------------

const char *
protoEventName(ProtoEvent ev)
{
    switch (ev) {
      case ProtoEvent::HostInstall:
        return "host-install";
      case ProtoEvent::LocalInstall:
        return "local-install";
      case ProtoEvent::LocalDrop:
        return "local-drop";
      case ProtoEvent::InvalBuffered:
        return "inval-buffered";
      case ProtoEvent::InvalDrained:
        return "inval-drained";
      case ProtoEvent::RoundStart:
        return "round-start";
      case ProtoEvent::RoundComplete:
        return "round-complete";
      case ProtoEvent::Serve:
        return "serve";
      case ProtoEvent::InvalRecv:
        return "inval-recv";
      case ProtoEvent::InvalRetry:
        return "inval-retry";
      case ProtoEvent::GpuUnplug:
        return "gpu-unplug";
      case ProtoEvent::GpuReattach:
        return "gpu-reattach";
    }
    return "?";
}

ProtocolTrace::ProtocolTrace(std::uint32_t depth) : _ring(depth)
{
    IDYLL_ASSERT(depth > 0, "protocol trace depth must be nonzero");
}

void
ProtocolTrace::record(Tick tick, ProtoEvent event, GpuId gpu, Vpn vpn,
                      std::uint64_t aux)
{
    _ring[_next % _ring.size()] = ProtocolRecord{tick, event, gpu, vpn,
                                                 aux};
    ++_next;
}

void
ProtocolTrace::dump(std::ostream &os) const
{
    const std::uint64_t depth = _ring.size();
    const std::uint64_t n = std::min(_next, depth);
    os << "protocol trace (last " << n << " of " << _next
       << " events):\n";
    for (std::uint64_t i = 0; i < n; ++i) {
        const ProtocolRecord &r = _ring[(_next - n + i) % depth];
        os << "  tick " << r.tick << "  " << protoEventName(r.event);
        if (r.gpu == kHostId)
            os << "  host";
        else if (r.gpu != kInvalidGpu)
            os << "  gpu " << r.gpu;
        os << "  vpn " << r.vpn << "  aux 0x" << std::hex << r.aux
           << std::dec << "\n";
    }
}

// ------------------------------------------------------------------
// Translation oracle
// ------------------------------------------------------------------

TranslationOracle::TranslationOracle(const EventQueue &eq,
                                     std::uint32_t numGpus,
                                     std::uint32_t traceDepth)
    : _eq(eq), _numGpus(numGpus), _trace(traceDepth)
{
    IDYLL_ASSERT(numGpus >= 1 && numGpus <= kMaxGpus,
                 "oracle tracks holder sets as 64-bit masks");
}

TranslationOracle::Shadow &
TranslationOracle::shadowOf(Vpn vpn)
{
    Shadow &s = _pages[vpn];
    if (s.localPfn.empty())
        s.localPfn.resize(_numGpus, 0);
    return s;
}

void
TranslationOracle::violation(Vpn vpn, const std::string &what,
                             GpuId gpu) const
{
    // Attribute the offending GPU to its shard using the same mapping
    // ShardScheduler::shardOfNode applies (host -> 0, gpu g ->
    // 1 + g % (shards - 1)), so a violation reproduced serially still
    // names the shard the GPU executes on in the sharded run.
    std::string tagged = what;
    if (gpu != kInvalidGpu && gpu != kHostId && _shards > 1)
        tagged += " [shard " +
                  std::to_string(1 + gpu % (_shards - 1)) + "]";

    std::ostream &os = std::cerr;
    os << "oracle: INVARIANT VIOLATION on vpn " << vpn << " at tick "
       << _eq.now() << ": " << tagged << "\n";
    auto it = _pages.find(vpn);
    if (it != _pages.end()) {
        const Shadow &s = it->second;
        os << "oracle: shadow state: host "
           << (s.hostValid ? "pfn " + std::to_string(s.hostPfn)
                           : std::string("invalid"))
           << " validMask 0x" << std::hex << s.validMask
           << " bufferedMask 0x" << s.bufferedMask << " writableMask 0x"
           << s.writableMask << std::dec << "\n";
    }
    _trace.dump(os);
    os.flush();
    panic("translation-coherence oracle: ", tagged, " (vpn ", vpn,
          ")");
}

void
TranslationOracle::onHostInstall(Vpn vpn, Pfn pfn)
{
    Shadow &s = shadowOf(vpn);
    s.hostPfn = pfn;
    s.hostValid = true;
    _trace.record(_eq.now(), ProtoEvent::HostInstall, kHostId, vpn, pfn);
}

void
TranslationOracle::onLocalInstall(GpuId gpu, Vpn vpn, Pfn pfn,
                                  bool writable)
{
    Shadow &s = shadowOf(vpn);
    const std::uint64_t bit = 1ull << gpu;
    ++_checks;
    if (_deadMask & bit)
        violation(vpn, "mapping installed on unplugged gpu " +
                           std::to_string(gpu),
                  gpu);
    s.validMask |= bit;
    // A host-granted install supersedes any buffered invalidation for
    // this GPU (elide semantics). With parallel walker threads the
    // update walk can even retire before the older write-back walk, so
    // the fresh mapping may be served while the stale entry's drain is
    // still in flight — that is legal, not a stale serve.
    s.bufferedMask &= ~bit;
    if (writable)
        s.writableMask |= bit;
    else
        s.writableMask &= ~bit;
    s.localPfn[gpu] = pfn;
    _trace.record(_eq.now(), ProtoEvent::LocalInstall, gpu, vpn, pfn);
}

void
TranslationOracle::onLocalDrop(GpuId gpu, Vpn vpn)
{
    Shadow &s = shadowOf(vpn);
    const std::uint64_t bit = 1ull << gpu;
    s.validMask &= ~bit;
    s.writableMask &= ~bit;
    _trace.record(_eq.now(), ProtoEvent::LocalDrop, gpu, vpn);
}

void
TranslationOracle::onInvalBuffered(GpuId gpu, Vpn vpn)
{
    Shadow &s = shadowOf(vpn);
    const std::uint64_t bit = 1ull << gpu;
    // A buffered invalidation makes the mapping unservable even though
    // the physical PTE bits are untouched until write-back.
    s.validMask &= ~bit;
    s.writableMask &= ~bit;
    s.bufferedMask |= bit;
    _trace.record(_eq.now(), ProtoEvent::InvalBuffered, gpu, vpn);
}

void
TranslationOracle::onInvalDrained(GpuId gpu, Vpn vpn)
{
    Shadow &s = shadowOf(vpn);
    s.bufferedMask &= ~(1ull << gpu);
    _trace.record(_eq.now(), ProtoEvent::InvalDrained, gpu, vpn);
}

void
TranslationOracle::onInvalRoundStart(Vpn vpn, std::uint32_t round,
                                     std::uint64_t targetMask)
{
    Shadow &s = shadowOf(vpn);
    // aux carries the raw target mask; with up to 64 GPUs there is no
    // room left to pack the round number alongside it.
    _trace.record(_eq.now(), ProtoEvent::RoundStart, kHostId, vpn,
                  targetMask);
    ++_checks;
    // Invariant (b): every GPU with a servable mapping must be in the
    // recipient set. Buffered holders are exempt -- they cannot serve
    // and their directory bits were cleared by the round that
    // buffered them.
    const std::uint64_t missed = s.validMask & ~targetMask;
    if (missed) {
        std::ostringstream os;
        os << "under-invalidation: round " << round
           << " targets mask 0x" << std::hex << targetMask
           << " but GPUs holding mappings are 0x" << s.validMask
           << std::dec << " (missed:";
        GpuId first = kInvalidGpu;
        for (std::uint32_t g = 0; g < _numGpus; ++g) {
            if (missed & (1ull << g)) {
                if (first == kInvalidGpu)
                    first = g;
                os << " " << g;
            }
        }
        os << ")";
        violation(vpn, os.str(), first);
    }
}

void
TranslationOracle::onInvalRoundComplete(Vpn vpn, std::uint32_t round)
{
    Shadow &s = shadowOf(vpn);
    _trace.record(_eq.now(), ProtoEvent::RoundComplete, kHostId, vpn,
                  round);
    ++_checks;
    // Invariant (a) precondition: once every targeted GPU acked, none
    // may still hold a servable copy.
    if (s.validMask) {
        std::ostringstream os;
        os << "invalidation round " << round
           << " completed (all acks in) but validMask is 0x" << std::hex
           << s.validMask << std::dec;
        violation(vpn, os.str());
    }
}

void
TranslationOracle::onServeFromLocalPte(GpuId gpu, Vpn vpn, Pfn pfn,
                                       bool write)
{
    Shadow &s = shadowOf(vpn);
    const std::uint64_t bit = 1ull << gpu;
    _trace.record(_eq.now(), ProtoEvent::Serve, gpu, vpn,
                  (std::uint64_t{write} << 63) | pfn);
    ++_checks;
    // Device-loss invariants: a dead GPU cannot serve, and nobody may
    // serve a translation whose frame lives in a dead GPU's memory
    // (the data is gone; recovery must re-home the page first).
    if (_deadMask & bit)
        violation(vpn, "translation served by unplugged gpu " +
                           std::to_string(gpu),
                  gpu);
    const std::uint32_t home = ownerOf(pfn);
    if (home < _numGpus && (_deadMask & (1ull << home)))
        violation(vpn, "translation homed on unplugged gpu " +
                           std::to_string(home) + " served by gpu " +
                           std::to_string(gpu),
                  gpu);
    // Invariant (a): serves are only legal while the shadow model
    // still considers the local copy live.
    if (!(s.validMask & bit))
        violation(vpn, "translation served after invalidation: gpu " +
                           std::to_string(gpu) +
                           " has no live local mapping",
                  gpu);
    if (s.bufferedMask & bit)
        violation(vpn, "translation served while the invalidation sits "
                       "in gpu " +
                           std::to_string(gpu) + "'s IRMB",
                  gpu);
    if (s.localPfn[gpu] != pfn)
        violation(vpn, "served pfn " + std::to_string(pfn) +
                           " does not match installed pfn " +
                           std::to_string(s.localPfn[gpu]) + " on gpu " +
                           std::to_string(gpu),
                  gpu);
    if (write) {
        if (!(s.writableMask & bit))
            violation(vpn, "write served through a read-only mapping "
                           "on gpu " +
                               std::to_string(gpu),
                      gpu);
        if (!s.hostValid || s.hostPfn != pfn)
            violation(vpn, "write served from pfn " +
                               std::to_string(pfn) +
                               " but the authoritative host copy is " +
                               (s.hostValid
                                    ? "pfn " + std::to_string(s.hostPfn)
                                    : std::string("invalid")),
                      gpu);
    }
}

void
TranslationOracle::onGpuUnplug(GpuId gpu)
{
    const std::uint64_t bit = 1ull << gpu;
    IDYLL_ASSERT(!(_deadMask & bit), "oracle: gpu ", gpu,
                 " unplugged twice");
    _deadMask |= bit;
    // The device's translation state ceased to exist — including its
    // buffered (IRMB) invalidations, which are moot now that the PTEs
    // they would have patched are gone.
    for (auto &[vpn, s] : _pages) {
        s.validMask &= ~bit;
        s.bufferedMask &= ~bit;
        s.writableMask &= ~bit;
    }
    _trace.record(_eq.now(), ProtoEvent::GpuUnplug, gpu, 0);
}

void
TranslationOracle::onGpuReattach(GpuId gpu)
{
    const std::uint64_t bit = 1ull << gpu;
    IDYLL_ASSERT(_deadMask & bit, "oracle: gpu ", gpu,
                 " re-attached while plugged in");
    _deadMask &= ~bit;
    _trace.record(_eq.now(), ProtoEvent::GpuReattach, gpu, 0);
}

void
TranslationOracle::recordEvent(ProtoEvent event, GpuId gpu, Vpn vpn,
                               std::uint64_t aux)
{
    _trace.record(_eq.now(), event, gpu, vpn, aux);
}

void
TranslationOracle::setIrmbProbe(std::function<bool(GpuId, Vpn)> probe)
{
    _irmbProbe = std::move(probe);
}

void
TranslationOracle::finalize() const
{
    for (const auto &[vpn, s] : _pages) {
        ++_checks;
        // Invariant (c): anything still buffered must still be present
        // in the real IRMB. A buffered bit with no IRMB entry means
        // the invalidation was lost at eviction/overflow.
        for (std::uint32_t g = 0; g < _numGpus; ++g) {
            if (!(s.bufferedMask & (1ull << g)))
                continue;
            if (!_irmbProbe || !_irmbProbe(g, vpn))
                violation(vpn,
                          "lost invalidation: gpu " + std::to_string(g) +
                              " buffered an invalidation that is no "
                              "longer in its IRMB and never drained",
                          g);
        }
        // Shadow self-consistency: a live writable copy must point at
        // the authoritative host frame.
        for (std::uint32_t g = 0; g < _numGpus; ++g) {
            const std::uint64_t bit = 1ull << g;
            if (!(s.validMask & bit))
                continue;
            if (!s.hostValid)
                violation(vpn, "gpu " + std::to_string(g) +
                                   " holds a mapping for a page the "
                                   "host no longer maps",
                          g);
            if ((s.writableMask & bit) && s.localPfn[g] != s.hostPfn)
                violation(vpn,
                          "gpu " + std::to_string(g) +
                              " holds a writable mapping to pfn " +
                              std::to_string(s.localPfn[g]) +
                              " but the host maps pfn " +
                              std::to_string(s.hostPfn),
                          g);
        }
    }
}

// ------------------------------------------------------------------
// Fault plan parsing
// ------------------------------------------------------------------

bool
FaultPlan::hasDrops() const
{
    for (const FaultRule &r : rules)
        if (r.action == FaultRule::Action::Drop)
            return true;
    return false;
}

namespace
{

/**
 * Parse one `class.action[=cycles][@prob]` rule at plan offset
 * @p base. On failure appends the first problem (with the offending
 * token's offset) to @p issues and returns false.
 */
bool
parseOneRule(const std::string &item, std::size_t base, FaultRule &rule,
             std::vector<PlanIssue> &issues)
{
    auto fail = [&](const std::string &msg, std::size_t offset) {
        issues.push_back({msg, offset});
        return false;
    };

    const std::size_t dot = item.find('.');
    if (dot == std::string::npos)
        return fail("rule '" + item +
                        "' is missing '.': expected "
                        "class.action[=cycles][@prob]",
                    base);

    const std::string cls = item.substr(0, dot);
    if (cls == "inval")
        rule.msg = FaultMsg::Inval;
    else if (cls == "ack")
        rule.msg = FaultMsg::Ack;
    else if (cls == "migreq")
        rule.msg = FaultMsg::MigReq;
    else
        return fail("unknown message class '" + cls +
                        "' (expected inval|ack|migreq)",
                    base);

    std::string rest = item.substr(dot + 1);
    rule.probability = 1.0;
    const std::size_t at = rest.find('@');
    if (at != std::string::npos) {
        const std::size_t probAt = base + dot + 1 + at + 1;
        const std::string prob = rest.substr(at + 1);
        rest = rest.substr(0, at);
        // parseDouble refuses NaN, which `p < 0 || p > 1` lets by.
        if (!parseDouble(prob, rule.probability))
            return fail("bad probability '" + prob + "'", probAt);
        if (rule.probability < 0.0 || rule.probability > 1.0)
            return fail("probability '" + prob + "' outside [0, 1]",
                        probAt);
    }

    std::string action = rest;
    std::string value;
    const std::size_t actionAt = base + dot + 1;
    std::size_t valueAt = actionAt;
    const std::size_t eq = rest.find('=');
    if (eq != std::string::npos) {
        action = rest.substr(0, eq);
        value = rest.substr(eq + 1);
        valueAt = actionAt + eq + 1;
    }

    auto parseCycles = [&](Cycles &out) {
        if (parseUnsigned(value, out) && out <= kMaxPlanTick)
            return true;
        return fail("bad cycle count '" + value + "' (expected an "
                    "integer in [0, " + std::to_string(kMaxPlanTick) +
                    "])",
                    valueAt);
    };

    if (action == "delay") {
        rule.action = FaultRule::Action::Delay;
        if (value.empty())
            return fail("'delay' needs a cycle count, e.g. delay=800",
                        actionAt);
        if (!parseCycles(rule.value))
            return false;
        if (rule.value == 0)
            return fail("'delay=0' is a no-op; remove the rule",
                        valueAt);
    } else if (action == "dup") {
        rule.action = FaultRule::Action::Duplicate;
        rule.value = 500; // default copy delay
        if (!value.empty() && !parseCycles(rule.value))
            return false;
    } else if (action == "drop") {
        rule.action = FaultRule::Action::Drop;
        if (!value.empty())
            return fail("'drop' takes no value", valueAt);
        if (rule.msg == FaultMsg::MigReq)
            return fail("migreq.drop is not recoverable (no retry path "
                        "for migration requests); use delay or dup",
                        base);
    } else {
        return fail("unknown action '" + action +
                        "' (expected delay|dup|drop)",
                    actionAt);
    }
    return true;
}

} // namespace

std::optional<FaultPlan>
parseFaultPlan(const std::string &text, std::string *error)
{
    // No text means "inject nothing". Report every invalid rule, not
    // just the first: chaos sweeps hand users machine-built plans.
    FaultPlan plan;
    auto parseItem = [&](const std::string &item, std::size_t pos,
                         std::vector<PlanIssue> &issues) {
        FaultRule rule;
        if (item.empty())
            issues.push_back({"empty rule (stray comma?)", pos});
        else if (parseOneRule(item, pos, rule, issues))
            plan.rules.push_back(rule);
    };
    if (!text.empty() && !parsePlanItems(text, "rule", error, parseItem))
        return std::nullopt;
    return plan;
}

// ------------------------------------------------------------------
// Fault injector
// ------------------------------------------------------------------

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : _plan(std::move(plan)), _seed(mix64(seed ^ 0xFAD7ull))
{
    // One stat slice per possible shard: the host's + kMaxGpus.
    _stats.resize(kMaxGpus + 1);
}

FaultStats &
FaultInjector::statLane()
{
    const std::uint32_t s = EventQueue::currentShard();
    return _stats[s < _stats.size() ? s : 0];
}

void
FaultInjector::foldStats()
{
    FaultStats &canon = _stats[0];
    for (std::size_t s = 1; s < _stats.size(); ++s) {
        FaultStats &lane = _stats[s];
        canon.delayed.inc(lane.delayed.value());
        canon.duplicated.inc(lane.duplicated.value());
        canon.dropped.inc(lane.dropped.value());
        lane.delayed.reset();
        lane.duplicated.reset();
        lane.dropped.reset();
    }
}

FaultInjector::Decision
FaultInjector::decide(FaultMsg msg, std::uint64_t key)
{
    Decision d;
    FaultStats &st = statLane();
    for (std::size_t i = 0; i < _plan.rules.size(); ++i) {
        const FaultRule &rule = _plan.rules[i];
        if (rule.msg != msg)
            continue;
        // Per-(message, rule) uniform draw in [0, 1): a pure hash of
        // the seed, the message's delivery key, and the rule index.
        // No shared RNG stream, so the decision for one message never
        // depends on how many others were decided before it.
        const std::uint64_t h = mix64(
            _seed ^ mix64(key + 0x9E3779B97F4A7C15ull * (i + 1)));
        const double draw =
            static_cast<double>(h >> 11) * 0x1.0p-53;
        if (draw >= rule.probability)
            continue;
        switch (rule.action) {
          case FaultRule::Action::Drop:
            st.dropped.inc();
            d.drop = true;
            // A dropped message's delay/dup outcomes are moot.
            return d;
          case FaultRule::Action::Delay:
            st.delayed.inc();
            d.extraDelay += rule.value;
            break;
          case FaultRule::Action::Duplicate:
            if (!d.duplicate) {
                st.duplicated.inc();
                d.duplicate = true;
                d.duplicateDelay = rule.value;
            }
            break;
        }
    }
    return d;
}

} // namespace idyll
