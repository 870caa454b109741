#include "harness/chaos.hh"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <sstream>

#include "harness/serve.hh"
#include "sim/event_queue.hh"
#include "sim/fault_domain.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace idyll
{

namespace
{

/**
 * The perturbation pool: every entry is valid parseFaultPlan grammar.
 * Delays and dups are timing-only; drops require the retry timer the
 * trial config guarantees. Probabilities are modest so most trials
 * survive — the soak's job is to search, not to DoS itself.
 */
const char *const kFaultPool[] = {
    "inval.delay=400@0.25", "inval.dup@0.15",    "inval.drop@0.05",
    "ack.delay=600@0.2",    "ack.dup@0.1",       "ack.drop@0.05",
    "migreq.delay=800@0.2", "inval.delay=50@0.5",
};
constexpr std::size_t kFaultPoolSize =
    sizeof(kFaultPool) / sizeof(kFaultPool[0]);

/** Serve shape driven in every trial (mirrored in the repro line). */
constexpr Cycles kTrialWindow = 20000;
constexpr std::uint32_t kTrialWarmup = 1;
constexpr std::uint32_t kTrialWindows = 24;
constexpr Tick kTrialUnplugHorizon = 160000;
constexpr Cycles kTrialRetryTimeout = 2000;

std::string
join(const std::vector<std::string> &parts)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i)
            out += ',';
        out += parts[i];
    }
    return out;
}

std::vector<std::string>
splitPlan(const std::string &plan)
{
    std::vector<std::string> out;
    std::string tok;
    std::istringstream is(plan);
    while (std::getline(is, tok, ','))
        if (!tok.empty())
            out.push_back(tok);
    return out;
}

/** The child's simulation config for one (rules, events) combination. */
SystemConfig
trialConfig(const ChaosOptions &opts, std::uint64_t trialSeed,
            const std::vector<std::string> &rules,
            const std::vector<std::string> &events)
{
    SystemConfig cfg = opts.baseCfg;
    cfg.seed = trialSeed;
    cfg.integrity.oracle = true;
    cfg.integrity.faultPlan = join(rules);
    cfg.integrity.unplugPlan = join(events);
    // Drops (and device loss generally) need the retry timer; the
    // unplug machinery needs TransFw off.
    if (cfg.integrity.invalRetryTimeout == 0)
        cfg.integrity.invalRetryTimeout = kTrialRetryTimeout;
    cfg.transFw.enabled = false;
    // Arm the watchdog so a wedge classifies as a hang instead of
    // stalling the whole soak.
    if (cfg.integrity.watchdogMaxIdleEvents == 0 &&
        cfg.integrity.watchdogMaxIdleTicks == 0) {
        cfg.integrity.watchdogMaxIdleEvents = 5'000'000;
        cfg.integrity.watchdogMaxIdleTicks = 1'000'000;
    }
    if (opts.forceSuppressedInval)
        cfg.integrity.suppressInvalGpuForTest = 1;
    return cfg;
}

/**
 * Run one trial in a forked child with stdio silenced (oracle panics
 * and watchdog dumps would otherwise interleave with the soak's own
 * progress output). Returns the raw exit code: WEXITSTATUS when the
 * child exited, 128+signal when it died on one (panic() aborts).
 */
int
runTrialChild(const ChaosOptions &opts, std::uint64_t trialSeed,
              const std::vector<std::string> &rules,
              const std::vector<std::string> &events)
{
    const pid_t pid = fork();
    if (pid < 0)
        fatal("chaos soak: fork failed");
    if (pid == 0) {
        const int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            ::dup2(devnull, STDOUT_FILENO);
            ::dup2(devnull, STDERR_FILENO);
            ::close(devnull);
        }
        try {
            ServeParams params;
            params.windowCycles = kTrialWindow;
            params.warmupWindows = kTrialWarmup;
            params.maxWindows = kTrialWindows;
            params.stormEvery = opts.stormEvery;
            params.unplugPlan = join(events);
            const SystemConfig cfg =
                trialConfig(opts, trialSeed, rules, events);
            runServe(opts.app, cfg, opts.scale, params);
        } catch (...) {
            ::_exit(65);
        }
        ::_exit(0);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return 66;
}

ChaosOutcome
classify(int exitCode)
{
    if (exitCode == 0)
        return ChaosOutcome::Pass;
    if (exitCode == kWatchdogExitCode)
        return ChaosOutcome::Hang;
    return ChaosOutcome::Failure;
}

std::string
jsonList(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += ',';
        out += '"' + jsonEscape(items[i]) + '"';
    }
    return out + "]";
}

} // namespace

std::vector<std::string>
makeChaosFaultRules(std::uint64_t seed)
{
    Rng rng(mix64(seed ^ 0xFA57ull));
    const std::uint64_t count = 1 + rng.below(3);
    std::vector<std::string> rules;
    for (std::uint64_t i = 0; i < count; ++i) {
        const char *pick =
            kFaultPool[rng.below(static_cast<std::uint64_t>(kFaultPoolSize))];
        bool dup = false;
        for (const std::string &r : rules)
            dup = dup || r == pick;
        if (!dup)
            rules.emplace_back(pick);
    }
    return rules;
}

ChaosReport
runChaosSoak(const ChaosOptions &opts)
{
    IDYLL_ASSERT(opts.baseCfg.numGpus >= 2,
                 "chaos soak needs at least two GPUs to kill one");
    ChaosReport report;
    const auto start = std::chrono::steady_clock::now();
    const auto budgetUp = [&] {
        if (opts.durationSeconds <= 0)
            return false;
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        return elapsed.count() >= opts.durationSeconds;
    };
    // Both bounds unset -> a single trial (the CI smoke shape).
    const std::uint64_t cap =
        (opts.maxTrials == 0 && opts.durationSeconds <= 0) ? 1
                                                           : opts.maxTrials;

    ChaosTrial failing;
    bool haveFailure = false;
    for (std::uint64_t i = 0; (cap == 0 || i < cap); ++i) {
        if (i > 0 && budgetUp())
            break;
        ChaosTrial trial;
        trial.index = i;
        trial.seed = mix64(opts.seed ^ (i + 1));
        trial.faultRules = makeChaosFaultRules(trial.seed);
        trial.unplugEvents = splitPlan(makeChaosUnplugPlan(
            trial.seed, opts.baseCfg.numGpus, kTrialUnplugHorizon));
        trial.exitCode = runTrialChild(opts, trial.seed, trial.faultRules,
                                       trial.unplugEvents);
        trial.outcome = classify(trial.exitCode);
        ++report.trials;
        if (trial.outcome == ChaosOutcome::Pass) {
            ++report.passed;
            continue;
        }
        if (trial.outcome == ChaosOutcome::Hang)
            ++report.hangs;
        failing = trial;
        haveFailure = true;
        break;
    }

    if (!haveFailure)
        return report;

    report.failed = true;
    report.failure = failing;

    // Greedy one-pass shrink: drop any fault rule, then any unplug
    // event, whose removal preserves the failure class. Deterministic
    // and bounded by rules+events extra child runs.
    std::vector<std::string> rules = failing.faultRules;
    std::vector<std::string> events = failing.unplugEvents;
    const ChaosOutcome target = failing.outcome;
    const auto shrink = [&](std::vector<std::string> &list,
                            std::vector<std::string> &other, bool listIsRules) {
        for (std::size_t i = 0; i < list.size();) {
            std::vector<std::string> candidate = list;
            candidate.erase(candidate.begin() +
                            static_cast<std::ptrdiff_t>(i));
            const std::vector<std::string> &candRules =
                listIsRules ? candidate : other;
            const std::vector<std::string> &candEvents =
                listIsRules ? other : candidate;
            ++report.minimizeRuns;
            const int code = runTrialChild(opts, failing.seed, candRules,
                                           candEvents);
            if (classify(code) == target)
                list = std::move(candidate); // removal kept; same index
            else
                ++i;
        }
    };
    shrink(rules, events, true);
    shrink(events, rules, false);
    report.minimizedFaultRules = rules;
    report.minimizedUnplugEvents = events;

    std::ostringstream cmd;
    cmd << "idyll_sim --app " << opts.app << " --scheme " << opts.scheme
        << " --gpus " << opts.baseCfg.numGpus << " --scale " << opts.scale
        << " --seed " << failing.seed << " --oracle --retry-timeout "
        << (opts.baseCfg.integrity.invalRetryTimeout
                ? opts.baseCfg.integrity.invalRetryTimeout
                : kTrialRetryTimeout)
        << " --serve --serve-window " << kTrialWindow << " --serve-warmup "
        << kTrialWarmup << " --serve-windows " << kTrialWindows
        << " --storm-every " << opts.stormEvery;
    if (!rules.empty())
        cmd << " --faults '" << join(rules) << "'";
    if (!events.empty())
        cmd << " --unplug '" << join(events) << "'";
    report.reproCommand = cmd.str();
    return report;
}

std::string
ChaosReport::toJson() const
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"chaos\": 1,\n";
    os << "  \"trials\": " << trials << ",\n";
    os << "  \"passed\": " << passed << ",\n";
    os << "  \"hangs\": " << hangs << ",\n";
    os << "  \"failed\": " << (failed ? "true" : "false");
    if (failed) {
        os << ",\n";
        os << "  \"failingTrial\": " << failure.index << ",\n";
        os << "  \"failingSeed\": " << failure.seed << ",\n";
        os << "  \"failingExit\": " << failure.exitCode << ",\n";
        os << "  \"outcome\": \""
           << (failure.outcome == ChaosOutcome::Hang ? "hang" : "failure")
           << "\",\n";
        os << "  \"faultRules\": " << jsonList(failure.faultRules) << ",\n";
        os << "  \"unplugEvents\": " << jsonList(failure.unplugEvents)
           << ",\n";
        os << "  \"minimizeRuns\": " << minimizeRuns << ",\n";
        os << "  \"minimizedFaultRules\": " << jsonList(minimizedFaultRules)
           << ",\n";
        os << "  \"minimizedUnplugEvents\": "
           << jsonList(minimizedUnplugEvents) << ",\n";
        os << "  \"repro\": \"" << jsonEscape(reproCommand) << "\"";
    }
    os << "\n}\n";
    return os.str();
}

} // namespace idyll
