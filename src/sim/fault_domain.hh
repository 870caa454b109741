/**
 * @file
 * Device-loss fault domain: deterministic, seeded GPU hot-unplug (and
 * optional later re-attach) injection.
 *
 * A production pod loses devices under load — XID errors, fallen-off
 * NVLink bridges, thermal trips. The FaultDomainController models that
 * as scheduled events: at a planned tick a GPU vanishes from the
 * fabric (every in-flight message to it is undeliverable, every page
 * homed on it is gone) and, optionally, re-attaches cold later.
 *
 * Plans are plain text so they fit on a command line and in a chaos
 * reproducer: `g<GPU>@<TICK>[/<REATTACH_TICK>]`, comma-separated.
 * E.g. `--unplug g1@60000` kills GPU 1 at tick 60000 forever;
 * `g2@50000/140000` unplugs GPU 2 at 50000 and re-attaches it (cold,
 * no mappings) at 140000.
 *
 * Parsing collects every invalid event into one structured error with
 * a caret under the offending token, matching the fault-plan and
 * SystemConfig::validate() style: one round trip fixes them all.
 */

#ifndef IDYLL_SIM_FAULT_DOMAIN_HH
#define IDYLL_SIM_FAULT_DOMAIN_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace idyll
{

/** One scheduled device-loss (and optional recovery) event. */
struct UnplugEvent
{
    GpuId gpu = 0;
    Tick unplugTick = 0;

    /** 0 = the device never comes back. */
    Tick reattachTick = 0;

    bool
    operator==(const UnplugEvent &o) const
    {
        return gpu == o.gpu && unplugTick == o.unplugTick &&
               reattachTick == o.reattachTick;
    }
};

/** A full unplug schedule (possibly empty = no device loss). */
struct UnplugPlan
{
    std::vector<UnplugEvent> events;

    bool empty() const { return events.empty(); }
};

/** One problem in a plan's text, anchored at a byte offset. */
struct PlanIssue
{
    std::string msg;
    std::size_t offset;
};

/**
 * Split a comma-separated plan; @p parseItem gets each item (empty
 * ones too) and its offset and appends what is wrong with it. On any
 * problem returns false and, if @p error is non-null, fills it with
 * ONE message listing them all, each with a caret under the plan.
 */
bool parsePlanItems(
    const std::string &text, const char *noun, std::string *error,
    const std::function<void(const std::string &item, std::size_t offset,
                             std::vector<PlanIssue> &issues)> &parseItem);

/**
 * Parse an unplug plan. On failure returns nullopt and, when @p error
 * is non-null, fills it with ONE message covering EVERY invalid event
 * (offending token underlined with a caret).
 *
 * Grammar (comma-separated): g<GPU>@<TICK>[/<REATTACH_TICK>]
 *  - GPU is a decimal device id below kHostId (validated against
 *    numGpus by SystemConfig::check(), not here — the parser has no
 *    topology).
 *  - TICK must be > 0 (tick 0 precedes launch; nothing exists yet)
 *    and at most kMaxPlanTick, so nothing scheduled after it wraps.
 *  - REATTACH_TICK, when present, must be > TICK.
 *  - A GPU may appear in at most one event (re-unplugging a
 *    re-attached device is not modeled).
 */
std::optional<UnplugPlan> parseUnplugPlan(const std::string &text,
                                          std::string *error = nullptr);

/** Render @p plan back to the canonical one-line grammar. */
std::string formatUnplugPlan(const UnplugPlan &plan);

/**
 * Deterministically synthesize a one-event unplug plan for a chaos
 * scenario: a uniformly drawn victim GPU and an unplug tick in
 * [horizon/4, 3*horizon/4], re-attached half the time. Same
 * (seed, numGpus, horizon) => same plan, always.
 */
std::string makeChaosUnplugPlan(std::uint64_t seed,
                                std::uint32_t numGpus, Tick horizon);

/**
 * Schedules the plan's events on the simulation clock and calls the
 * attached handlers when they fire. The controller owns no recovery
 * logic itself — MultiGpuSystem wires the handlers to the network,
 * GPU, driver, oracle, and scoreboard reactions in a fixed order.
 */
class FaultDomainController
{
  public:
    using Handler = std::function<void(GpuId)>;

    FaultDomainController(EventQueue &eq, UnplugPlan plan)
        : _eq(eq), _plan(std::move(plan))
    {
    }

    void setUnplugHandler(Handler h) { _onUnplug = std::move(h); }
    void setReattachHandler(Handler h) { _onReattach = std::move(h); }

    /**
     * Schedule every plan event. Call exactly once, before the run
     * starts (all plan ticks are in the future at tick 0).
     */
    void start();

    std::uint64_t unplugsFired() const { return _unplugsFired; }
    std::uint64_t reattachesFired() const { return _reattachesFired; }
    const UnplugPlan &plan() const { return _plan; }

  private:
    EventQueue &_eq;
    UnplugPlan _plan;
    Handler _onUnplug;
    Handler _onReattach;
    std::uint64_t _unplugsFired = 0;
    std::uint64_t _reattachesFired = 0;
};

} // namespace idyll

#endif // IDYLL_SIM_FAULT_DOMAIN_HH
