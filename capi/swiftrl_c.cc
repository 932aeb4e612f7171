/**
 * @file
 * Implementation of the stable C API (capi/swiftrl.h) over the C++
 * library: TrainerSession for training, serving::PolicyServer for
 * inference, common/json for the params documents.
 *
 * The one design rule of this layer: *validate, then call*. The C++
 * layer treats invalid configuration as a programming error and
 * aborts (SWIFTRL_FATAL); here every input crosses a trust boundary,
 * so each entry point checks what the C++ constructors would be
 * fatal about — JSON shape, enum spellings, the session rules
 * (through the same sessionConfigInvalidReason() the constructors
 * use), checkpoint identity — and turns the failure into a status
 * code plus a thread-local message before any fatal path is
 * reachable.
 */

#include "capi/swiftrl.h"

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <iostream>

#include "common/json.hh"
#include "pimsim/pim_system.hh"
#include "rlcore/dataset.hh"
#include "rlcore/qtable.hh"
#include "rlcore/serialization.hh"
#include "rlenv/environment.hh"
#include "rlenv/registry.hh"
#include "serving/policy_server.hh"
#include "swiftrl/session.hh"
#include "swiftrl/sharding.hh"

namespace {

namespace rlcore = swiftrl::rlcore;
namespace rlenv = swiftrl::rlenv;

static_assert(std::is_same_v<rlenv::StateId, std::int32_t> &&
                  std::is_same_v<rlenv::ActionId, std::int32_t>,
              "the C ABI promises int32_t state/action ids");

thread_local std::string t_lastError;

swiftrl_status
ok()
{
    t_lastError.clear();
    return SWIFTRL_OK;
}

swiftrl_status
fail(swiftrl_status status, std::string reason)
{
    t_lastError = std::move(reason);
    return status;
}

/** IO errors say "cannot open"; everything else about a file that
 *  did open is a content (corruption/version) problem. */
swiftrl_status
fileStatus(const std::string &reason)
{
    return reason.find("cannot open") != std::string::npos
               ? SWIFTRL_ERR_IO
               : SWIFTRL_ERR_CORRUPT;
}

/** Everything swiftrl_session_create needs, parsed and validated. */
struct TrainParams
{
    std::string env = "frozenlake";
    std::size_t cores = 125;
    unsigned hostThreads = 0;
    std::size_t transitions = 16384;
    std::uint64_t collectSeed = 1234;
    /** Shape of the validated environment (parse resolves it). */
    rlenv::StateId numStates = 0;
    rlenv::ActionId numActions = 0;
    swiftrl::SessionConfig session;
};

bool
parseEnum(const std::string &value,
          const std::vector<std::pair<std::string, int>> &table,
          int *out)
{
    for (const auto &[name, tag] : table) {
        if (value == name) {
            *out = tag;
            return true;
        }
    }
    return false;
}

/** Parse + validate params_json into @p params; false + reason on
 *  any problem the C++ layer would abort over. */
bool
parseTrainParams(const char *params_json, TrainParams &params,
                 std::string &reason)
{
    if (params_json == nullptr) {
        reason = "params_json must not be NULL";
        return false;
    }
    std::string parse_error;
    const auto doc =
        swiftrl::json::parseJson(params_json, &parse_error);
    if (!doc) {
        reason = "params_json: " + parse_error;
        return false;
    }
    if (!doc->isObject()) {
        reason = "params_json must be a JSON object";
        return false;
    }

    static const char *const kKnown[] = {
        "env",      "cores",    "host_threads",
        "transitions", "collect_seed", "algo",
        "sampling", "format",   "alpha",
        "gamma",    "epsilon",  "episodes",
        "stride",   "seed",     "tau",
        "block_transitions", "tasklets", "weighted",
        "epsilon_decay", "shards",
    };
    for (const auto &[key, value] : doc->members) {
        bool known = false;
        for (const char *k : kKnown)
            known = known || key == k;
        if (!known) {
            reason = "params_json: unknown key \"" + key + "\"";
            return false;
        }
        (void)value;
    }

    params.env = doc->stringOr("env", "");
    if (params.env.empty()) {
        reason = "params_json: \"env\" is required";
        return false;
    }
    // tryMakeEnvironment covers the procedural families
    // ("lake:<side>", "mptaxi:<side>x<P>") that a fixed-name lookup
    // would reject, and returns the spec-specific parse error.
    std::string env_error;
    const auto probe_env =
        rlenv::tryMakeEnvironment(params.env, &env_error);
    if (!probe_env) {
        reason = "params_json: " + env_error;
        return false;
    }
    params.numStates = probe_env->numStates();
    params.numActions = probe_env->numActions();

    const long cores = doc->intOr("cores", 125);
    const long host_threads = doc->intOr("host_threads", 0);
    const long transitions = doc->intOr("transitions", 16384);
    if (cores < 1) {
        reason = "params_json: \"cores\" must be >= 1";
        return false;
    }
    if (host_threads < 0) {
        reason = "params_json: \"host_threads\" must be >= 0";
        return false;
    }
    // transitions < cores is fine: partitionDataset hands the excess
    // cores empty chunks, and empty chunks train zero episodes of
    // nothing — only a fully empty dataset is meaningless.
    if (transitions < 1) {
        reason = "params_json: \"transitions\" must be >= 1";
        return false;
    }
    params.cores = static_cast<std::size_t>(cores);
    params.hostThreads = static_cast<unsigned>(host_threads);
    params.transitions = static_cast<std::size_t>(transitions);
    params.collectSeed =
        static_cast<std::uint64_t>(doc->intOr("collect_seed", 1234));

    int tag = 0;
    const std::string algo = doc->stringOr("algo", "qlearning");
    if (!parseEnum(algo,
                   {{"qlearning",
                     int(rlcore::Algorithm::QLearning)},
                    {"sarsa", int(rlcore::Algorithm::Sarsa)}},
                   &tag)) {
        reason = "params_json: \"algo\" must be qlearning or sarsa";
        return false;
    }
    params.session.workload.algo = rlcore::Algorithm(tag);

    const std::string sampling = doc->stringOr("sampling", "seq");
    if (!parseEnum(sampling,
                   {{"seq", int(rlcore::Sampling::Seq)},
                    {"ran", int(rlcore::Sampling::Ran)},
                    {"str", int(rlcore::Sampling::Str)}},
                   &tag)) {
        reason = "params_json: \"sampling\" must be seq, ran, or str";
        return false;
    }
    params.session.workload.sampling = rlcore::Sampling(tag);

    const std::string format = doc->stringOr("format", "fp32");
    if (!parseEnum(format,
                   {{"fp32", int(rlcore::NumericFormat::Fp32)},
                    {"int32", int(rlcore::NumericFormat::Int32)}},
                   &tag)) {
        reason = "params_json: \"format\" must be fp32 or int32";
        return false;
    }
    params.session.workload.format = rlcore::NumericFormat(tag);

    auto &hyper = params.session.hyper;
    hyper.alpha =
        static_cast<float>(doc->numberOr("alpha", hyper.alpha));
    hyper.gamma =
        static_cast<float>(doc->numberOr("gamma", hyper.gamma));
    hyper.epsilon =
        static_cast<float>(doc->numberOr("epsilon", hyper.epsilon));
    hyper.seed =
        static_cast<std::uint64_t>(doc->intOr("seed", 42));

    // Saturated, so an out-of-range count reaches the session rules
    // below instead of wrapping into range.
    using swiftrl::json::saturate;
    hyper.episodes =
        saturate<int>(doc->intOr("episodes", hyper.episodes));
    hyper.stride = saturate<int>(doc->intOr("stride", hyper.stride));
    params.session.tau =
        saturate<int>(doc->intOr("tau", params.session.tau));
    params.session.blockTransitions =
        saturate<std::size_t>(doc->intOr("block_transitions", 128));
    params.session.tasklets =
        saturate<unsigned>(doc->intOr("tasklets", 1));
    params.session.weightedAggregation =
        doc->boolOr("weighted", false);
    params.session.epsilonDecay = static_cast<float>(
        doc->numberOr("epsilon_decay", 1.0));

    const long shards = doc->intOr("shards", 0);
    if (shards < 0) {
        reason = "params_json: \"shards\" must be >= 0";
        return false;
    }
    params.session.shards = static_cast<std::size_t>(shards);

    const std::string session_reason =
        swiftrl::sessionConfigInvalidReason(params.session);
    if (!session_reason.empty()) {
        reason = "params_json: " + session_reason;
        return false;
    }
    if (params.session.shards > 0) {
        // What TrainerSession would be fatal about at begin time,
        // rechecked here so an embedder gets a status code instead of
        // abort(): plan validity and the conservative MRAM demand
        // bound against the default bank size.
        const std::string plan_reason = swiftrl::shardPlanInvalidReason(
            params.numStates, params.session.shards, params.cores);
        if (!plan_reason.empty()) {
            reason = "params_json: \"shards\": " + plan_reason;
            return false;
        }
        const std::size_t demand = swiftrl::shardedMramDemandBound(
            params.numStates, params.numActions,
            params.session.shards, params.transitions);
        const std::size_t bank =
            swiftrl::pimsim::PimConfig{}.mramBytesPerDpu;
        if (demand > bank) {
            reason = "params_json: sharded layout needs " +
                     std::to_string(demand) +
                     " bytes of MRAM per core but banks hold " +
                     std::to_string(bank) +
                     "; raise \"shards\" or lower \"transitions\"";
            return false;
        }
    }
    params.session.streaming = false;
    return true;
}

} // namespace

/** One C-API training run: the machine, the dataset, the session. */
struct swiftrl_session
{
    TrainParams params;
    std::unique_ptr<swiftrl::pimsim::PimSystem> system;
    rlcore::Dataset data;
    std::unique_ptr<swiftrl::TrainerSession> session;
    bool finished = false;
};

/** One C-API serving handle over a loaded Q-table. */
struct swiftrl_policy
{
    explicit swiftrl_policy(rlcore::QTable table,
                            swiftrl::serving::ServingConfig config)
        : server(std::move(table), config)
    {
    }
    swiftrl::serving::PolicyServer server;
};

namespace {

/** Shared body of create and restore: build everything up to (but
 *  not including) begin/restore on the session. */
std::unique_ptr<swiftrl_session>
buildSession(const TrainParams &params)
{
    auto handle = std::make_unique<swiftrl_session>();
    handle->params = params;
    const auto env = rlenv::makeEnvironment(params.env);
    handle->data = rlcore::collectRandomDataset(
        *env, params.transitions, params.collectSeed);
    swiftrl::pimsim::PimConfig machine;
    machine.numDpus = params.cores;
    machine.hostThreads = params.hostThreads;
    handle->system =
        std::make_unique<swiftrl::pimsim::PimSystem>(machine);
    handle->session = std::make_unique<swiftrl::TrainerSession>(
        *handle->system, params.session);
    return handle;
}

} // namespace

extern "C" {

const char *
swiftrl_version(void)
{
    return "1.0.0";
}

const char *
swiftrl_status_name(swiftrl_status status)
{
    switch (status) {
    case SWIFTRL_OK: return "SWIFTRL_OK";
    case SWIFTRL_ERR_INVALID_ARGUMENT:
        return "SWIFTRL_ERR_INVALID_ARGUMENT";
    case SWIFTRL_ERR_PARSE: return "SWIFTRL_ERR_PARSE";
    case SWIFTRL_ERR_STATE: return "SWIFTRL_ERR_STATE";
    case SWIFTRL_ERR_IO: return "SWIFTRL_ERR_IO";
    case SWIFTRL_ERR_CORRUPT: return "SWIFTRL_ERR_CORRUPT";
    case SWIFTRL_ERR_MISMATCH: return "SWIFTRL_ERR_MISMATCH";
    }
    return "SWIFTRL_ERR_UNKNOWN";
}

const char *
swiftrl_last_error(void)
{
    return t_lastError.c_str();
}

swiftrl_status
swiftrl_session_create(const char *params_json,
                       swiftrl_session **out_session)
{
    if (out_session == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "out_session must not be NULL");
    *out_session = nullptr;
    TrainParams params;
    std::string reason;
    if (!parseTrainParams(params_json, params, reason))
        return fail(SWIFTRL_ERR_PARSE, reason);

    auto handle = buildSession(params);
    const auto env = rlenv::makeEnvironment(params.env);
    handle->session->beginOffline(handle->data, env->numStates(),
                                  env->numActions());
    *out_session = handle.release();
    return ok();
}

swiftrl_status
swiftrl_session_step(swiftrl_session *session, int *out_remaining)
{
    if (session == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "session must not be NULL");
    if (session->finished)
        return fail(SWIFTRL_ERR_STATE,
                    "session is finished; create a new one");
    if (!session->session->step())
        return fail(SWIFTRL_ERR_STATE,
                    "episode budget exhausted; call "
                    "swiftrl_session_finish");
    if (out_remaining)
        *out_remaining = session->session->episodesRemaining();
    return ok();
}

swiftrl_status
swiftrl_session_checkpoint(swiftrl_session *session,
                           const char *path)
{
    if (session == nullptr || path == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "session and path must not be NULL");
    if (session->finished)
        return fail(SWIFTRL_ERR_STATE,
                    "a finished session has nothing to checkpoint");
    std::string reason;
    if (!swiftrl::trySaveCheckpoint(session->session->checkpoint(),
                                    path, &reason))
        return fail(SWIFTRL_ERR_IO, reason);
    return ok();
}

swiftrl_status
swiftrl_session_restore(const char *params_json,
                        const char *checkpoint_path,
                        swiftrl_session **out_session)
{
    if (out_session == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "out_session must not be NULL");
    *out_session = nullptr;
    if (checkpoint_path == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "checkpoint_path must not be NULL");
    TrainParams params;
    std::string reason;
    if (!parseTrainParams(params_json, params, reason))
        return fail(SWIFTRL_ERR_PARSE, reason);

    const auto ck =
        swiftrl::tryLoadCheckpoint(checkpoint_path, &reason);
    if (!ck)
        return fail(fileStatus(reason), reason);
    if (ck->streaming)
        return fail(SWIFTRL_ERR_MISMATCH,
                    "checkpoint is from a streaming run; the C API "
                    "drives offline sessions");
    const std::string why = swiftrl::checkpointMismatch(
        params.session, params.cores, *ck);
    if (!why.empty())
        return fail(SWIFTRL_ERR_MISMATCH, why);
    const auto env = rlenv::makeEnvironment(params.env);
    if (ck->numStates != env->numStates() ||
        ck->numActions != env->numActions())
        return fail(SWIFTRL_ERR_MISMATCH,
                    "checkpoint was trained on a different "
                    "environment shape than \"" + params.env + "\"");

    auto handle = buildSession(params);
    handle->session->restoreOffline(handle->data, *ck);
    *out_session = handle.release();
    return ok();
}

swiftrl_status
swiftrl_session_finish(swiftrl_session *session,
                       const char *q_table_path)
{
    if (session == nullptr || q_table_path == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "session and q_table_path must not be NULL");
    if (session->finished)
        return fail(SWIFTRL_ERR_STATE, "session already finished");
    if (session->session->episodesRemaining() > 0)
        return fail(SWIFTRL_ERR_STATE,
                    "episode budget not exhausted; keep stepping");
    session->session->finishRetrieval();
    session->finished = true;
    std::string reason;
    if (!rlcore::trySaveQTable(session->session->aggregated(),
                               q_table_path, &reason))
        return fail(SWIFTRL_ERR_IO, reason);
    return ok();
}

int
swiftrl_session_rounds(const swiftrl_session *session)
{
    return session ? session->session->commRounds() : -1;
}

int
swiftrl_session_episodes_remaining(const swiftrl_session *session)
{
    return session ? session->session->episodesRemaining() : -1;
}

void
swiftrl_session_free(swiftrl_session *session)
{
    delete session;
}

swiftrl_status
swiftrl_train(const char *params_json, const char *q_table_path)
{
    if (q_table_path == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "q_table_path must not be NULL");
    swiftrl_session *session = nullptr;
    swiftrl_status status =
        swiftrl_session_create(params_json, &session);
    if (status != SWIFTRL_OK)
        return status;
    while (session->session->step()) {
    }
    status = swiftrl_session_finish(session, q_table_path);
    const std::string reason = t_lastError;
    swiftrl_session_free(session);
    if (status != SWIFTRL_OK)
        return fail(status, reason);
    return ok();
}

swiftrl_status
swiftrl_policy_load(const char *q_table_path,
                    const char *serving_json,
                    swiftrl_policy **out_policy)
{
    if (out_policy == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "out_policy must not be NULL");
    *out_policy = nullptr;
    if (q_table_path == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "q_table_path must not be NULL");

    swiftrl::serving::ServingConfig config;
    if (serving_json != nullptr) {
        std::string parse_error;
        const auto doc =
            swiftrl::json::parseJson(serving_json, &parse_error);
        if (!doc)
            return fail(SWIFTRL_ERR_PARSE,
                        "serving_json: " + parse_error);
        if (!doc->isObject())
            return fail(SWIFTRL_ERR_PARSE,
                        "serving_json must be a JSON object");
        for (const auto &[key, value] : doc->members) {
            if (key != "max_batch" && key != "max_wait_sec")
                return fail(SWIFTRL_ERR_PARSE,
                            "serving_json: unknown key \"" + key +
                                "\"");
            (void)value;
        }
        const long max_batch = doc->intOr("max_batch", 64);
        const double max_wait =
            doc->numberOr("max_wait_sec", 100e-6);
        if (max_batch < 1)
            return fail(SWIFTRL_ERR_PARSE,
                        "serving_json: \"max_batch\" must be >= 1");
        if (max_wait < 0.0)
            return fail(SWIFTRL_ERR_PARSE,
                        "serving_json: \"max_wait_sec\" must be "
                        ">= 0");
        config.maxBatch = static_cast<std::size_t>(max_batch);
        config.maxWaitSec = max_wait;
    }

    std::string reason;
    auto table = rlcore::tryLoadQTable(q_table_path, &reason);
    if (!table)
        return fail(fileStatus(reason), reason);

    *out_policy = new swiftrl_policy(*std::move(table), config);
    return ok();
}

swiftrl_status
swiftrl_policy_act_batch(swiftrl_policy *policy,
                         const int32_t *states, int32_t *actions,
                         size_t count)
{
    if (policy == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "policy must not be NULL");
    if (count == 0)
        return ok();
    if (states == nullptr || actions == nullptr)
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "states and actions must not be NULL");
    if (!policy->server.actBatch(states, actions, count))
        return fail(SWIFTRL_ERR_INVALID_ARGUMENT,
                    "a state id is out of range for the loaded "
                    "table");
    return ok();
}

int32_t
swiftrl_policy_num_states(const swiftrl_policy *policy)
{
    return policy ? policy->server.table().numStates() : -1;
}

int32_t
swiftrl_policy_num_actions(const swiftrl_policy *policy)
{
    return policy ? policy->server.table().numActions() : -1;
}

void
swiftrl_policy_free(swiftrl_policy *policy)
{
    delete policy;
}

swiftrl_status
swiftrl_dump_flight_record(const char *path)
{
    auto &tracer = swiftrl::telemetry::tracer();
    if (path == nullptr) {
        tracer.dumpFlightText(std::cerr);
        return ok();
    }
    if (!tracer.writeFlightJson(path)) {
        return fail(SWIFTRL_ERR_IO,
                    std::string("cannot write flight record to ") +
                        path);
    }
    return ok();
}

} // extern "C"
