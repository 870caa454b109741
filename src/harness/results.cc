#include "harness/results.hh"

#include <sstream>
#include <type_traits>

#include "sim/json.hh"

namespace idyll
{

namespace
{

using Field = SimResults::Field;

// The conditions of the groups that are written only when they hold.
bool
hostTimed(const SimResults &r)
{
    return r.hostSeconds > 0.0;
}

bool
traced(const SimResults &r)
{
    return !r.traceDigest.empty();
}

bool
attributed(const SimResults &r)
{
    return r.latDemandCount || r.latInvalCount;
}

bool
sharded(const SimResults &r)
{
    return !r.shardTelemetryJson.empty();
}

// A field's JSON name is its member's name, bar the raw-JSON members.
#define IDYLL_FIELD(member, ...)                                          \
    Field { #member, &SimResults::member __VA_OPT__(, ) __VA_ARGS__ }

const Field kFields[] = {
    IDYLL_FIELD(app), IDYLL_FIELD(scheme),
    IDYLL_FIELD(execTicks), IDYLL_FIELD(instructions),
    IDYLL_FIELD(accesses), IDYLL_FIELD(localAccesses),
    IDYLL_FIELD(remoteAccesses),
    IDYLL_FIELD(l1Hits), IDYLL_FIELD(l1Misses), IDYLL_FIELD(l2Hits),
    IDYLL_FIELD(l2Misses), IDYLL_FIELD(mpki),
    IDYLL_FIELD(demandTlbMisses), IDYLL_FIELD(demandMissLatencyAvg),
    IDYLL_FIELD(demandMissLatencyTotal), IDYLL_FIELD(farFaults),
    IDYLL_FIELD(faultResolveLatencyAvg),
    IDYLL_FIELD(demandWalks), IDYLL_FIELD(invalWalks),
    IDYLL_FIELD(updateWalks), IDYLL_FIELD(pwcHits), IDYLL_FIELD(pwcMisses),
    IDYLL_FIELD(pwcStaleDrops), IDYLL_FIELD(mmuCacheLevelHits),
    IDYLL_FIELD(mmuCacheLevelMisses), IDYLL_FIELD(walkQueueFullStalls),
    IDYLL_FIELD(l2SubConflicts), IDYLL_FIELD(l2DeadEvictions),
    IDYLL_FIELD(busyDemandCycles), IDYLL_FIELD(busyInvalCycles),
    IDYLL_FIELD(invalSent), IDYLL_FIELD(invalNecessary),
    IDYLL_FIELD(invalUnnecessary), IDYLL_FIELD(invalServiceLatencyTotal),
    IDYLL_FIELD(migrationRequests), IDYLL_FIELD(migrations),
    IDYLL_FIELD(migrationWaitAvg), IDYLL_FIELD(migrationWaitTotal),
    IDYLL_FIELD(migrationTotalAvg),
    IDYLL_FIELD(irmbInserts), IDYLL_FIELD(irmbLookupHits),
    IDYLL_FIELD(irmbElided), IDYLL_FIELD(irmbWrittenBack),
    IDYLL_FIELD(irmbEvictions), IDYLL_FIELD(transFwForwarded),
    IDYLL_FIELD(vmCacheHits), IDYLL_FIELD(vmCacheMisses),
    IDYLL_FIELD(sharingBuckets), IDYLL_FIELD(networkBytes),
    // Host timings differ run to run, and CI compares serialized
    // results byte for byte: written only when measured.
    IDYLL_FIELD(hostSeconds, hostTimed),
    IDYLL_FIELD(eventsExecuted, hostTimed),
    IDYLL_FIELD(eventsPerSec, hostTimed),
    IDYLL_FIELD(traceDigest, traced),
    {"metrics", Field::Raw{&SimResults::metricsJson}},
    IDYLL_FIELD(latDemandCount, attributed),
    IDYLL_FIELD(latDemandCycles, attributed),
    IDYLL_FIELD(latInvalCount, attributed),
    IDYLL_FIELD(latInvalCycles, attributed),
    IDYLL_FIELD(latDemandPhaseCycles, attributed),
    IDYLL_FIELD(latInvalPhaseCycles, attributed),
    {"latency", Field::Raw{&SimResults::latencyJson}},
    {"samples", Field::Raw{&SimResults::samplesJson}},
    // Run-shape telemetry (hostStats && sharded): omitted otherwise so
    // serialized results stay byte-identical across shard counts.
    IDYLL_FIELD(shardImbalancePct, sharded),
    IDYLL_FIELD(lookaheadStallPct, sharded),
    {"shardTelemetry", Field::Raw{&SimResults::shardTelemetryJson},
     sharded},
};

#undef IDYLL_FIELD

/** Write @p value as JSON. */
template <typename T>
void
write(std::ostream &os, const T &value)
{
    if constexpr (std::is_same_v<T, double>) {
        os << jsonNumber(value);
    } else if constexpr (std::is_same_v<T, std::string>) {
        os << "\"" << jsonEscape(value) << "\"";
    } else if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>) {
        os << "[";
        for (std::size_t i = 0; i < value.size(); ++i)
            os << (i ? ", " : "") << value[i];
        os << "]";
    } else {
        os << value;
    }
}

/** Read @p json into @p out; false when it is not of out's type. */
template <typename T>
bool
read(const JsonValue &json, T &out)
{
    if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>) {
        out.assign(json.items().size(), 0);
        for (std::size_t i = 0; i < out.size(); ++i)
            if (!read(json.items()[i], out[i]))
                return false;
        return json.isArray();
    } else {
        std::optional<T> value;
        if constexpr (std::is_same_v<T, double>)
            value = json.asDouble();
        else if constexpr (std::is_same_v<T, std::string>)
            value = json.asString();
        else
            value = json.asU64();
        out = value.value_or(out);
        return value.has_value();
    }
}

} // namespace

std::span<const Field>
SimResults::fields()
{
    return kFields;
}

std::string
SimResults::toJson() const
{
    std::ostringstream os;
    const char *sep = "";
    os << "{";
    for (const Field &field : kFields) {
        const auto *raw = std::get_if<Field::Raw>(&field.member);
        if ((field.when && !field.when(*this)) ||
            (raw && (this->*raw->text).empty()))
            continue;
        os << sep << "\"" << field.name << "\": ";
        sep = ", ";
        std::visit(
            [&](auto member) {
                if constexpr (std::is_same_v<decltype(member), Field::Raw>)
                    os << this->*member.text;
                else
                    write(os, this->*member);
            },
            field.member);
    }
    os << "}";
    return os.str();
}

std::optional<SimResults>
SimResults::fromJson(const JsonValue &json, std::string *error)
{
    auto fail = [&](std::string message) {
        if (error)
            *error = std::move(message);
        return std::nullopt;
    };
    if (!json.isObject())
        return fail("results are not a JSON object");
    SimResults r;
    for (const Field &field : kFields) {
        const JsonValue *value = json.find(field.name);
        if (!value)
            continue;
        const bool ok = std::visit(
            [&](auto member) {
                if constexpr (std::is_same_v<decltype(member), Field::Raw>)
                    return true;
                else
                    return read(*value, r.*member);
            },
            field.member);
        if (!ok)
            return fail(std::string("member \"") + field.name +
                        "\" has the wrong type");
    }
    return r;
}

} // namespace idyll
