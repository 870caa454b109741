#include "harness/runner.hh"

#include <cstdlib>

#include "harness/system.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

namespace idyll
{

SimResults
runOnce(const std::string &app, const SystemConfig &cfg, double scale)
{
    MultiGpuSystem system(cfg);
    return system.run(Workload::byName(app, scale));
}

SimResults
runOnce(const Workload &workload, const SystemConfig &cfg)
{
    MultiGpuSystem system(cfg);
    return system.run(workload);
}

SystemConfig
scaledForSim(SystemConfig cfg)
{
    cfg.accessCounterThreshold = kScaledThreshold256;
    cfg.prepopulate = Prepopulate::HomeShard;

    // Integrity knobs travel by environment so sweeps (which build
    // their configs internally) pick them up without new plumbing.
    if (std::getenv("IDYLL_ORACLE"))
        cfg.integrity.oracle = true;
    if (const char *env = std::getenv("IDYLL_FAULTS"))
        cfg.integrity.faultPlan = env;
    if (const char *env = std::getenv("IDYLL_INVAL_RETRY"))
        cfg.integrity.invalRetryTimeout = std::strtoull(env, nullptr, 10);
    if (const char *env = std::getenv("IDYLL_WATCHDOG_EVENTS"))
        cfg.integrity.watchdogMaxIdleEvents =
            std::strtoull(env, nullptr, 10);
    if (const char *env = std::getenv("IDYLL_WATCHDOG_TICKS"))
        cfg.integrity.watchdogMaxIdleTicks =
            std::strtoull(env, nullptr, 10);
    // Trace categories may be forced the same way; only the digest
    // sink is attached (no JSONL path), so parallel sweeps stay safe.
    if (const char *env = std::getenv("IDYLL_TRACE"))
        cfg.trace.categories = env;
    // Observability knobs: latency attribution and interval sampling
    // are per-system (no shared state), so sweeps stay parallel-safe.
    if (std::getenv("IDYLL_LATENCY"))
        cfg.latency.enabled = true;
    if (const char *env = std::getenv("IDYLL_SAMPLE_EVERY"))
        cfg.sampler.everyCycles = std::strtoull(env, nullptr, 10);
    // Wall-clock dispatch throughput in the results JSON. Keep off for
    // runs whose serialized output is diffed byte-for-byte.
    if (std::getenv("IDYLL_HOST_STATS"))
        cfg.hostStats = true;
    return cfg;
}

double
benchScale()
{
    if (const char *env = std::getenv("IDYLL_BENCH_SCALE")) {
        const double scale = std::atof(env);
        if (scale > 0.0)
            return scale;
        warn("ignoring invalid IDYLL_BENCH_SCALE '", env, "'");
    }
    return 1.0;
}

} // namespace idyll
