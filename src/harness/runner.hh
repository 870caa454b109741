/**
 * @file
 * Experiment runner: one-call helpers that build a fresh system per
 * (app, config) pair — shared by the sweep driver, the examples and
 * the integration tests.
 */

#ifndef IDYLL_HARNESS_RUNNER_HH
#define IDYLL_HARNESS_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "harness/results.hh"
#include "sim/config.hh"
#include "workloads/workload.hh"

namespace idyll
{

/** Run one app under one configuration (fresh system). */
SimResults runOnce(const std::string &app, const SystemConfig &cfg,
                   double scale = 1.0);

/** Run a fully custom workload under one configuration. */
SimResults runOnce(const Workload &workload, const SystemConfig &cfg);

/** A named configuration for suite sweeps. */
struct SchemePoint
{
    std::string label;
    SystemConfig cfg;
    /**
     * Per-CU work multiplier applied on top of the sweep's scale, e.g.
     * 4 / gpus so a GPU-count sweep keeps total work bounded.
     */
    double work = 1.0;
};

/**
 * Reshapes an app's parameters before a sweep runs it (Fig. 21's
 * enlarged 2 MB-page inputs). An empty transform leaves apps as-is.
 */
using AppTransform = std::function<AppParams(AppParams)>;

/** A change to a run's configuration, applied after its preset. */
using ConfigEdit = std::function<void(SystemConfig &)>;

/**
 * The simulated runs are ~10^3 times shorter than the real
 * applications the paper traces, so the access-counter threshold must
 * shrink by a similar factor for page migration to engage at the
 * paper's relative intensity. 8 is the scaled stand-in for the UVM
 * default of 256; Figure 20's "512" doubles it (16). See DESIGN.md.
 */
constexpr std::uint32_t kScaledThreshold256 = 8;
constexpr std::uint32_t kScaledThreshold512 = 16;

/**
 * Apply the simulation scaling to a Table 2 configuration: the scaled
 * access-counter threshold and home-shard prepopulation, nothing else.
 */
SystemConfig scaledForSim(SystemConfig cfg);

} // namespace idyll

#endif // IDYLL_HARNESS_RUNNER_HH
