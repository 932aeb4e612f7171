/**
 * @file
 * The training-parameter table: every knob of one offline training
 * run (workload variant, alpha/gamma/epsilon, episodes, tau, cores,
 * tasklets, the dataset; SwiftRL Sec. 4.1) declared once, one row per
 * key, and read the same way by every surface that accepts it: the C
 * ABI's `params_json`, the swiftrl_cli training flags and the fleet
 * job spec. The rules they all inherit:
 *
 *  - The member initializers of TrainParams (and of the SessionConfig,
 *    Hyper and Workload it embeds) are the only defaults.
 *  - Integers saturate at the field's limits, never wrap, so an
 *    out-of-range count reaches trainParamsInvalidReason() out of
 *    range; a negative value for an unsigned field is rejected.
 *  - Enums take rlcore's spellings (any case, "q", "int8").
 *  - A value of the wrong JSON type, or a key the surface does not
 *    accept, is rejected.
 *  - `seed` trains and `collect_seed` collects the dataset.
 *
 * A surface reports a rejection as its own prefix plus the reason
 * returned here, so one input is accepted or rejected the same way,
 * with the same reason, everywhere.
 */

#ifndef SWIFTRL_SWIFTRL_TRAIN_PARAMS_HH
#define SWIFTRL_SWIFTRL_TRAIN_PARAMS_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "swiftrl/session.hh"

namespace swiftrl {

namespace common {
class CliFlags;
}

namespace json {
class JsonValue;
}

/**
 * Ceilings on "cores" and "transitions", so a huge count is refused
 * with a reason instead of failing an allocation mid-build: 65,536
 * cores (25x the 2,560 DPUs of the largest UPMEM server) and 2^26
 * transitions (a 1 GiB packed dataset).
 */
inline constexpr std::size_t kMaxCores = std::size_t{1} << 16;
inline constexpr std::size_t kMaxTransitions = std::size_t{1} << 26;

/** Everything one offline training run is built from. */
struct TrainParams
{
    /** Environment name or procedural spec (rlenv::tryMakeEnvironment). */
    std::string env = "frozenlake";

    /** PIM cores the run's machine is built with. */
    std::size_t cores = 125;

    /** Simulation host threads (0 = one per hardware thread). */
    unsigned hostThreads = 0;

    /** Offline dataset size. */
    std::size_t transitions = 16384;

    /** Dataset-collection seed (session.hyper.seed trains). */
    std::uint64_t collectSeed = 1234;

    SessionConfig session;

    bool operator==(const TrainParams &) const = default;
};

/** The surfaces that read training parameters: the C ABI reads every
 *  key; the CLI spells "host_threads" as --host-threads. */
enum class TrainSurface { CApi, Cli, Fleet };

/** How a text surface (the CLI) types a key's value. */
enum class TrainParamType { Text, Integer, Number, Flag };

inline constexpr unsigned kCliKey = 1u << 0;
inline constexpr unsigned kFleetKey = 1u << 1;

/** One row of the table. */
struct TrainParamKey
{
    std::string_view name;
    /** kCliKey | kFleetKey: the surfaces beyond the C ABI with it. */
    unsigned surfaces;
    TrainParamType type;
    /** Read @p value into @p params: empty, or why it is rejected. */
    std::string (*read)(const json::JsonValue &value,
                        const TrainParamKey &key, TrainParams &params);
    std::string_view doc;

    /** Whether @p surface accepts the key. */
    bool on(TrainSurface surface) const;
};

/** The table, in documentation order. */
std::span<const TrainParamKey> trainParamTable();

/**
 * Every rule on a complete TrainParams: the environment resolves,
 * cores and transitions are >= 1 and within their ceilings,
 * sessionConfigInvalidReason() holds,
 * and a sharded layout has a valid plan that fits the default MRAM
 * bank. Empty when valid, else the reason.
 */
std::string trainParamsInvalidReason(const TrainParams &params);

/**
 * Read the JSON object @p object into @p params as @p surface does
 * (absent keys keep @p params' values), then check the result with
 * trainParamsInvalidReason(). Empty on success, else the reason.
 */
std::string readTrainParams(const json::JsonValue &object,
                            TrainSurface surface, TrainParams &params);

/** The CLI's readTrainParams: the training flags present in @p flags,
 *  typed through CliFlags, as the JSON object the table reads. */
std::string readTrainParams(const common::CliFlags &flags,
                            TrainParams &params);

/** The CLI flag names of the CLI's keys (without "--"). */
std::vector<std::string> trainParamFlags();

} // namespace swiftrl

#endif // SWIFTRL_SWIFTRL_TRAIN_PARAMS_HH
