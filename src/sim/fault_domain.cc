#include "sim/fault_domain.hh"

#include <algorithm>
#include <sstream>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace idyll
{

namespace
{

/** A plan tick: positive and at most kMaxPlanTick. */
bool
parseTick(const std::string &text, Tick &out)
{
    return parseUnsigned(text, out) && out > 0 && out <= kMaxPlanTick;
}

/**
 * Parse one `g<GPU>@<TICK>[/<REATTACH>]` token at plan offset @p at.
 * Appends to @p issues instead of returning early so a single token
 * with several problems still reports the first structural one.
 */
void
parseOneEvent(const std::string &item, std::size_t at, UnplugPlan &plan,
              std::vector<PlanIssue> &issues)
{
    if (item.empty()) {
        issues.push_back({"empty event (stray comma?)", at});
        return;
    }
    if (item[0] != 'g') {
        issues.push_back(
            {"event must start with 'g', got '" + item + "'", at});
        return;
    }
    const std::size_t atSign = item.find('@');
    if (atSign == std::string::npos) {
        issues.push_back(
            {"missing '@<tick>' in '" + item + "'", at + item.size()});
        return;
    }
    UnplugEvent ev;
    std::uint64_t gpu = 0;
    if (!parseUnsigned(item.substr(1, atSign - 1), gpu) || gpu >= kHostId) {
        issues.push_back({"gpu id must be 'g<N>', N < " +
                              std::to_string(kHostId) + ", in '" + item +
                              "'",
                          at + 1});
        return;
    }
    ev.gpu = static_cast<GpuId>(gpu);

    std::string ticks = item.substr(atSign + 1);
    const std::size_t slash = ticks.find('/');
    const std::string unplugText =
        slash == std::string::npos ? ticks : ticks.substr(0, slash);
    if (!parseTick(unplugText, ev.unplugTick)) {
        issues.push_back({"unplug tick must be an integer in [1, " +
                              std::to_string(kMaxPlanTick) + "] in '" +
                              item + "'",
                          at + atSign + 1});
        return;
    }
    if (slash != std::string::npos) {
        const std::size_t reatAt = at + atSign + 1 + slash + 1;
        if (!parseTick(ticks.substr(slash + 1), ev.reattachTick)) {
            issues.push_back({"re-attach tick must be an integer in "
                              "[1, " +
                                  std::to_string(kMaxPlanTick) +
                                  "] in '" + item + "'",
                              reatAt});
            return;
        }
        if (ev.reattachTick <= ev.unplugTick) {
            issues.push_back({"re-attach tick must come after the "
                              "unplug tick in '" +
                                  item + "'",
                              reatAt});
            return;
        }
    }
    for (const UnplugEvent &prev : plan.events) {
        if (prev.gpu == ev.gpu) {
            issues.push_back(
                {"gpu " + std::to_string(ev.gpu) +
                     " appears in more than one event",
                 at});
            return;
        }
    }
    plan.events.push_back(ev);
}

} // namespace

bool
parsePlanItems(
    const std::string &text, const char *noun, std::string *error,
    const std::function<void(const std::string &item, std::size_t offset,
                             std::vector<PlanIssue> &issues)> &parseItem)
{
    std::vector<PlanIssue> issues;
    for (std::size_t pos = 0;;) {
        const std::size_t comma = std::min(text.find(',', pos), text.size());
        parseItem(text.substr(pos, comma - pos), pos, issues);
        if (comma == text.size())
            break;
        pos = comma + 1;
    }
    if (issues.empty())
        return true;
    if (error) {
        std::ostringstream os;
        os << issues.size() << " invalid " << noun
           << (issues.size() == 1 ? "" : "s") << ":";
        for (const PlanIssue &issue : issues) {
            // The plan indented, then a caret under the offset.
            os << "\n  - " << issue.msg << "\n      " << text
               << "\n      "
               << std::string(std::min(issue.offset, text.size()), ' ')
               << '^';
        }
        *error = os.str();
    }
    return false;
}

std::optional<UnplugPlan>
parseUnplugPlan(const std::string &text, std::string *error)
{
    UnplugPlan plan;
    auto parseItem = [&](const std::string &item, std::size_t at,
                         std::vector<PlanIssue> &issues) {
        if (item.empty() && at == text.size())
            issues.push_back({"trailing comma", at - 1});
        else
            parseOneEvent(item, at, plan, issues);
    };
    if (!text.empty() && !parsePlanItems(text, "event", error, parseItem))
        return std::nullopt;
    return plan;
}

std::string
formatUnplugPlan(const UnplugPlan &plan)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
        const UnplugEvent &ev = plan.events[i];
        os << (i ? "," : "") << 'g' << ev.gpu << '@' << ev.unplugTick;
        if (ev.reattachTick)
            os << '/' << ev.reattachTick;
    }
    return os.str();
}

std::string
makeChaosUnplugPlan(std::uint64_t seed, std::uint32_t numGpus,
                    Tick horizon)
{
    IDYLL_ASSERT(numGpus >= 1, "chaos plan needs at least one GPU");
    IDYLL_ASSERT(horizon >= 8, "chaos plan horizon too short");
    Rng rng(mix64(seed ^ 0xC4A05ull));
    const GpuId victim = static_cast<GpuId>(rng.below(numGpus));
    const Tick lo = std::max<Tick>(horizon / 4, 1);
    const Tick hi = std::max<Tick>(3 * (horizon / 4), lo);
    UnplugEvent ev;
    ev.gpu = victim;
    ev.unplugTick = rng.range(lo, hi);
    if (rng.chance(0.5))
        ev.reattachTick = ev.unplugTick + std::max<Tick>(horizon / 4, 1);
    UnplugPlan plan;
    plan.events.push_back(ev);
    return formatUnplugPlan(plan);
}

void
FaultDomainController::start()
{
    for (const UnplugEvent &ev : _plan.events) {
        const GpuId gpu = ev.gpu;
        _eq.scheduleAt(ev.unplugTick, [this, gpu] {
            ++_unplugsFired;
            if (_onUnplug)
                _onUnplug(gpu);
        });
        if (ev.reattachTick) {
            _eq.scheduleAt(ev.reattachTick, [this, gpu] {
                ++_reattachesFired;
                if (_onReattach)
                    _onReattach(gpu);
            });
        }
    }
}

} // namespace idyll
