#include "harness/parallel.hh"

#include <atomic>
#include <cstdlib>
#include <thread>

#include "sim/logging.hh"

namespace idyll
{

unsigned
resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("IDYLL_JOBS")) {
        const long jobs = std::atol(env);
        if (jobs > 0)
            return static_cast<unsigned>(jobs);
        warn("ignoring invalid IDYLL_JOBS '", env, "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ParallelRunner::ParallelRunner(unsigned jobs) : _jobs(resolveJobs(jobs))
{
}

std::vector<std::vector<SimResults>>
ParallelRunner::runGrid(const std::vector<std::string> &apps,
                        const std::vector<SchemePoint> &schemes,
                        double scale, const AppTransform &transform) const
{
    std::vector<std::vector<SimResults>> out(
        schemes.size(), std::vector<SimResults>(apps.size()));
    const std::size_t tasks = schemes.size() * apps.size();
    if (tasks == 0)
        return out;

    auto runCell = [&](std::size_t task) {
        const std::size_t s = task / apps.size();
        const std::size_t a = task % apps.size();
        Workload workload =
            Workload::byName(apps[a], scale * schemes[s].work);
        if (transform)
            workload = Workload{transform(workload.params())};
        SimResults r = runOnce(workload, schemes[s].cfg);
        r.scheme = schemes[s].label;
        out[s][a] = std::move(r);
    };

    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(_jobs, tasks));
    if (workers <= 1) {
        for (std::size_t task = 0; task < tasks; ++task)
            runCell(task);
        return out;
    }

    std::atomic<std::size_t> cursor{0};
    auto worker = [&]() {
        for (;;) {
            const std::size_t task =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (task >= tasks)
                return;
            runCell(task);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    return out;
}

} // namespace idyll
