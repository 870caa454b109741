/**
 * @file
 * idyll_trace — convert a JSONL event trace (written by
 * `idyll_sim --trace CATS --trace-out FILE`) into the Chrome
 * trace_event JSON format that Perfetto and chrome://tracing load.
 *
 *   idyll_sim --app KM --scheme idyll --trace all --trace-out t.jsonl
 *   idyll_trace t.jsonl t.json     # then open t.json in Perfetto
 *
 * Mapping: one Perfetto "process" per GPU (the host driver is pid
 * 999), one "thread" per trace category, one instant event per
 * record. Completed page walks ("walk.done") become duration events
 * spanning the walk, so walker occupancy is visible on the timeline.
 * Simulator ticks are interpreted as nanoseconds (Chrome timestamps
 * are microseconds, hence the /1000).
 *
 * With --samples FILE, the interval-sampler ring (written by
 * `idyll_sim --sample-every N --sample-out FILE`, or embedded as the
 * "samples" object of a --json results file) is additionally emitted
 * as Perfetto counter tracks (ph "C"): one counter per channel,
 * grouped under the owning GPU's process (host channels under the
 * driver pid), so queue depths and occupancies render as stepped
 * area charts above the event lanes.
 *
 * Every input is read with the JSON reader (sim/json.hh): each trace
 * line is parsed on its own, and a line that does not parse or lacks
 * t/cat/op/gpu is skipped and counted.
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/trace.hh"
#include "sim/types.hh"

namespace
{

using idyll::JsonValue;

/** Thread id for a category name (lane per category in Perfetto). */
int
categoryTid(std::string_view cat)
{
    using idyll::TraceCategory;
    for (int i = 0;
         i < static_cast<int>(idyll::kNumTraceCategories); ++i) {
        if (cat == idyll::traceCategoryName(static_cast<TraceCategory>(i)))
            return i;
    }
    return idyll::kNumTraceCategories; // unknown -> overflow lane
}

constexpr std::uint64_t kHostPid = 999;

std::uint64_t
eventPid(std::uint64_t gpu)
{
    return gpu == idyll::kHostId ? kHostPid : gpu;
}

/** One sampled channel from a sampler JSON file. */
struct SampleChannel
{
    std::string name;
    std::uint64_t pid = kHostPid;
};

/**
 * Emit the sampler ring in @p path as counter events. Accepts either
 * a bare sampler object (--sample-out) or a full results JSON with an
 * embedded "samples" object. Returns the number of counter events
 * written, or -1 on error.
 */
long
emitCounterTracks(const std::string &path, std::ostream &out,
                  bool &first, std::set<std::uint64_t> &pids)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "error: cannot open '" << path << "'\n";
        return -1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    idyll::JsonError error;
    const auto root = idyll::parseJson(buffer.str(), &error);
    if (!root) {
        std::cerr << "error: " << path << ": byte " << error.offset
                  << ": " << error.message << "\n";
        return -1;
    }
    const JsonValue &sampler =
        root->find("samples") ? (*root)["samples"] : *root;
    const JsonValue *chans = sampler.find("channels");
    const JsonValue *recs = sampler.find("records");
    if (!chans || !recs) {
        std::cerr << "error: no sampler data in '" << path << "'\n";
        return -1;
    }

    std::vector<SampleChannel> channels;
    for (const JsonValue &chan : chans->items()) {
        const auto name = chan["name"].asString();
        if (!name)
            break;
        SampleChannel ch;
        ch.name = idyll::jsonEscape(*name);
        // gpu is -1 for host/driver/network channels.
        if (const auto gpu = chan["gpu"].asI64(); gpu && *gpu >= 0)
            ch.pid = static_cast<std::uint64_t>(*gpu);
        channels.push_back(std::move(ch));
    }
    if (channels.empty()) {
        std::cerr << "error: no channels in '" << path << "'\n";
        return -1;
    }

    long events = 0;
    for (const JsonValue &rec : recs->items()) {
        // Each record is {"t":T,"v":[v0,v1,...]}.
        const auto t = rec["t"].asU64();
        if (!t)
            break;
        const auto &values = rec["v"].items();
        for (std::size_t ch = 0;
             ch < channels.size() && ch < values.size(); ++ch) {
            out << (first ? "" : ",\n") << "{\"name\":\""
                << channels[ch].name << "\",\"ph\":\"C\",\"ts\":"
                << static_cast<double>(*t) / 1000.0
                << ",\"pid\":" << channels[ch].pid
                << ",\"args\":{\"value\":"
                << values[ch].asU64().value_or(0) << "}}";
            first = false;
            pids.insert(channels[ch].pid);
            ++events;
        }
    }
    return events;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> positional;
    std::string samplesPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--samples") {
            if (i + 1 >= argc) {
                std::cerr << "error: --samples needs a file path\n";
                return 2;
            }
            samplesPath = argv[++i];
        } else {
            positional.push_back(arg);
        }
    }
    if (positional.size() != 2) {
        std::cerr << "usage: idyll_trace [--samples FILE] "
                     "IN.jsonl OUT.json\n";
        return 2;
    }
    std::ifstream in(positional[0]);
    if (!in) {
        std::cerr << "error: cannot open '" << positional[0] << "'\n";
        return 1;
    }
    std::ofstream out(positional[1]);
    if (!out) {
        std::cerr << "error: cannot open '" << positional[1] << "'\n";
        return 1;
    }

    out << "{\"traceEvents\":[\n";
    bool first = true;
    std::set<std::uint64_t> pids; // for the process-name metadata
    std::map<std::pair<std::uint64_t, int>, std::string> lanes;
    std::uint64_t records = 0, skipped = 0;

    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const JsonValue r = idyll::parseJson(line).value_or(JsonValue());
        const auto tick = r["t"].asU64(), gpu = r["gpu"].asU64();
        const auto cat = r["cat"].asString(), op = r["op"].asString();
        if (!tick || !gpu || !cat || !op) {
            ++skipped;
            continue;
        }
        const std::uint64_t t = *tick;
        const std::uint64_t vpn = r["vpn"].asU64().value_or(0);
        const std::uint64_t a = r["a"].asU64().value_or(0);
        const std::uint64_t b = r["b"].asU64().value_or(0);
        const std::uint64_t c = r["c"].asU64().value_or(0);

        const std::uint64_t pid = eventPid(*gpu);
        const int tid = categoryTid(*cat);
        pids.insert(pid);
        lanes[{pid, tid}] = idyll::jsonEscape(*cat);

        // "walk.done" carries the walk latency in `b`: render it as a
        // duration event spanning [t-b, t] so walker busy time shows
        // up as real intervals, not just ticks.
        const bool span = *op == "walk.done" && b > 0 && b <= t;
        const double ts = static_cast<double>(span ? t - b : t) / 1000.0;
        out << (first ? "" : ",\n") << "{\"name\":\""
            << idyll::jsonEscape(*op) << "\"";
        if (span)
            out << ",\"ph\":\"X\",\"dur\":" << static_cast<double>(b) / 1000.0;
        else
            out << ",\"ph\":\"i\",\"s\":\"t\"";
        out << ",\"ts\":" << ts << ",\"pid\":" << pid
            << ",\"tid\":" << tid << ",\"args\":{\"vpn\":" << vpn
            << ",\"a\":" << a << ",\"b\":" << b << ",\"c\":" << c
            << "}}";
        first = false;
        ++records;
    }

    long counters = 0;
    if (!samplesPath.empty()) {
        counters = emitCounterTracks(samplesPath, out, first, pids);
        if (counters < 0)
            return 1;
    }

    // Name the processes and lanes so Perfetto's track labels read as
    // "GPU 0 / tlb" instead of bare numbers.
    for (const std::uint64_t pid : pids) {
        out << (first ? "" : ",\n")
            << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
            << ",\"args\":{\"name\":\""
            << (pid == kHostPid ? std::string("host driver")
                                : "GPU " + std::to_string(pid))
            << "\"}}";
        first = false;
    }
    for (const auto &[lane, cat] : lanes) {
        out << (first ? "" : ",\n")
            << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
            << lane.first << ",\"tid\":" << lane.second
            << ",\"args\":{\"name\":\"" << cat << "\"}}";
        first = false;
    }
    out << "\n]}\n";

    std::cerr << "idyll_trace: " << records << " events";
    if (counters)
        std::cerr << ", " << counters << " counter samples";
    if (skipped)
        std::cerr << " (" << skipped << " malformed lines skipped)";
    std::cerr << "\n";
    return 0;
}
