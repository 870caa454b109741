#include "harness/runner.hh"

#include "harness/system.hh"
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
    return cfg;
}

} // namespace idyll
