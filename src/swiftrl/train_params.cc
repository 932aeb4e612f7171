#include "swiftrl/train_params.hh"

#include <algorithm>
#include <optional>
#include <type_traits>

#include "common/cli.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "pimsim/pim_system.hh"
#include "rlcore/trainers.hh"
#include "rlenv/registry.hh"
#include "swiftrl/sharding.hh"

namespace swiftrl {

namespace {

using common::detail::concat;

/**
 * Read @p v into the field @p out, typed by the field: a bool, a
 * number (saturated into an integer field; an unsigned one refuses
 * negatives), a string, or an enum through rlcore's spellings, which
 * the row's doc line lists.
 */
template <typename T>
std::string
readValue(const json::JsonValue &v, const TrainParamKey &key, T &out)
{
    const std::string name = concat('"', key.name, '"');
    if constexpr (std::is_same_v<T, bool>) {
        if (!v.isBool())
            return name + " must be true or false";
        out = v.boolean;
    } else if constexpr (std::is_arithmetic_v<T>) {
        if (!v.isNumber())
            return name + " must be a number";
        // Saturating a negative count or seed to 0 would silently
        // pick a different valid run; refuse it instead.
        if (std::is_unsigned_v<T> && v.number < 0.0)
            return concat(name, " must not be negative, got ",
                          json::jsonNumber(v.number));
        if constexpr (std::is_integral_v<T>)
            out = json::saturate<T>(v.number);
        else
            out = static_cast<T>(v.number);
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (!v.isString())
            return name + " must be a string";
        out = v.string;
    } else {
        // A non-string value has an empty `string`, which no parser
        // accepts.
        std::optional<T> parsed;
        if constexpr (std::is_same_v<T, rlcore::Algorithm>)
            parsed = rlcore::parseAlgorithm(v.string);
        else if constexpr (std::is_same_v<T, rlcore::Sampling>)
            parsed = rlcore::parseSampling(v.string);
        else
            parsed = rlcore::parseNumericFormat(v.string);
        if (!parsed)
            return concat(name, " must be ", key.doc);
        out = *parsed;
    }
    return "";
}

template <typename Field>
std::string
readField(const json::JsonValue &v, const TrainParamKey &key,
          TrainParams &params)
{
    return readValue(v, key, Field{}(params));
}

/** One row: @p field (a captureless accessor) names the member the
 *  key fills; the member's type picks the reader and the CLI type. */
template <typename Field>
constexpr TrainParamKey
row(std::string_view name, unsigned surfaces, Field,
    std::string_view doc)
{
    using T = std::remove_reference_t<
        std::invoke_result_t<Field, TrainParams &>>;
    constexpr TrainParamType type =
        std::is_same_v<T, bool>         ? TrainParamType::Flag
        : std::is_integral_v<T>         ? TrainParamType::Integer
        : std::is_floating_point_v<T>   ? TrainParamType::Number
                                        : TrainParamType::Text;
    return {name, surfaces, type, &readField<Field>, doc};
}

using P = TrainParams;
constexpr unsigned kEvery = kCliKey | kFleetKey;

// Enum rows' doc lines are the spellings their reasons quote.
const TrainParamKey kTable[] = {
    row("env", kEvery, [](P &p) -> auto & { return p.env; },
        "environment name or procedural spec"),
    row("cores", kCliKey, [](P &p) -> auto & { return p.cores; },
        "PIM cores to train on"),
    row("host_threads", kCliKey, [](P &p) -> auto & { return p.hostThreads; },
        "simulation host threads; 0 = one per hardware thread"),
    row("transitions", kEvery, [](P &p) -> auto & { return p.transitions; },
        "offline dataset size"),
    row("collect_seed", kEvery, [](P &p) -> auto & { return p.collectSeed; },
        "dataset collection seed"),
    row("algo", kEvery, [](P &p) -> auto & { return p.session.workload.algo; },
        "qlearning or sarsa"),
    row("sampling", kEvery,
        [](P &p) -> auto & { return p.session.workload.sampling; },
        "seq, ran, or str"),
    row("format", kEvery,
        [](P &p) -> auto & { return p.session.workload.format; },
        "fp32, int32, or int8"),
    row("alpha", kEvery, [](P &p) -> auto & { return p.session.hyper.alpha; },
        "learning rate, in (0, 1]"),
    row("gamma", kEvery, [](P &p) -> auto & { return p.session.hyper.gamma; },
        "discount factor, in [0, 1]"),
    row("epsilon", kEvery,
        [](P &p) -> auto & { return p.session.hyper.epsilon; },
        "SARSA exploration rate, in [0, 1]"),
    row("episodes", kEvery,
        [](P &p) -> auto & { return p.session.hyper.episodes; },
        "episode budget"),
    row("stride", 0, [](P &p) -> auto & { return p.session.hyper.stride; },
        "STR sampling stride"),
    row("seed", kEvery, [](P &p) -> auto & { return p.session.hyper.seed; },
        "training seed"),
    row("tau", kEvery, [](P &p) -> auto & { return p.session.tau; },
        "synchronisation period; tau > episodes is one round"),
    row("block_transitions", 0,
        [](P &p) -> auto & { return p.session.blockTransitions; },
        "transitions per staging block"),
    row("tasklets", kEvery, [](P &p) -> auto & { return p.session.tasklets; },
        "tasklets per core, 1-24"),
    row("weighted", kCliKey,
        [](P &p) -> auto & { return p.session.weightedAggregation; },
        "visit-weighted aggregation"),
    row("epsilon_decay", 0,
        [](P &p) -> auto & { return p.session.epsilonDecay; },
        "per-round epsilon multiplier, in (0, 1]"),
    row("shards", kCliKey, [](P &p) -> auto & { return p.session.shards; },
        "Q-table state-range shards; 0 = whole-table replication"),
};

std::string
flagName(std::string_view key)
{
    std::string flag(key);
    std::replace(flag.begin(), flag.end(), '_', '-');
    return flag;
}

} // namespace

std::span<const TrainParamKey>
trainParamTable()
{
    return kTable;
}

bool
TrainParamKey::on(TrainSurface surface) const
{
    return surface == TrainSurface::CApi ||
           (surfaces & (surface == TrainSurface::Cli ? kCliKey
                                                      : kFleetKey));
}

std::string
trainParamsInvalidReason(const TrainParams &params)
{
    std::string reason;
    const auto env = rlenv::tryMakeEnvironment(params.env, &reason);
    if (!env)
        return reason;
    if (params.cores < 1)
        return "\"cores\" must be >= 1";
    if (params.cores > kMaxCores)
        return concat("\"cores\" must be <= ", kMaxCores);
    // transitions < cores is fine: partitionDataset hands the excess
    // cores empty chunks — only a fully empty dataset is meaningless.
    if (params.transitions < 1)
        return "\"transitions\" must be >= 1";
    if (params.transitions > kMaxTransitions)
        return concat("\"transitions\" must be <= ", kMaxTransitions);
    reason = sessionConfigInvalidReason(params.session);
    if (!reason.empty() || params.session.shards == 0)
        return reason;
    // What TrainerSession would be fatal about at begin time: plan
    // validity and the conservative MRAM demand bound against the
    // default bank size.
    reason = shardPlanInvalidReason(env->numStates(),
                                    params.session.shards, params.cores);
    if (!reason.empty())
        return "\"shards\": " + reason;
    const std::size_t demand = shardedMramDemandBound(
        env->numStates(), env->numActions(), params.session.shards,
        params.transitions);
    const std::size_t bank = pimsim::PimConfig{}.mramBytesPerDpu;
    if (demand > bank)
        return concat("sharded layout needs ", demand,
                      " bytes of MRAM per core but banks hold ", bank,
                      "; raise \"shards\" or lower \"transitions\"");
    return "";
}

std::string
readTrainParams(const json::JsonValue &object, TrainSurface surface,
                TrainParams &params)
{
    for (const auto &[name, value] : object.members) {
        const auto *key = std::find_if(
            std::begin(kTable), std::end(kTable),
            [&](const TrainParamKey &k) { return k.name == name; });
        if (key == std::end(kTable) || !key->on(surface))
            return concat("unknown key \"", name, '"');
        const std::string reason = key->read(value, *key, params);
        if (!reason.empty())
            return reason;
    }
    return trainParamsInvalidReason(params);
}

std::string
readTrainParams(const common::CliFlags &flags, TrainParams &params)
{
    json::JsonValue object;
    object.type = json::JsonValue::Type::Object;
    for (const TrainParamKey &key : kTable) {
        const std::string flag = flagName(key.name);
        if (!key.on(TrainSurface::Cli) || !flags.has(flag))
            continue;
        json::JsonValue v;
        if (key.type == TrainParamType::Text) {
            v.type = json::JsonValue::Type::String;
            v.string = flags.getString(flag, "");
        } else if (key.type == TrainParamType::Flag) {
            v.type = json::JsonValue::Type::Bool;
            v.boolean = flags.getBool(flag, false);
        } else {
            v.type = json::JsonValue::Type::Number;
            v.number = key.type == TrainParamType::Integer
                           ? static_cast<double>(flags.getInt(flag, 0))
                           : flags.getDouble(flag, 0.0);
        }
        object.members.emplace_back(key.name, std::move(v));
    }
    return readTrainParams(object, TrainSurface::Cli, params);
}

std::vector<std::string>
trainParamFlags()
{
    std::vector<std::string> flags;
    for (const TrainParamKey &key : kTable) {
        if (key.on(TrainSurface::Cli))
            flags.push_back(flagName(key.name));
    }
    return flags;
}

} // namespace swiftrl
