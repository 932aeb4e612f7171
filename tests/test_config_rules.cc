// One parameter table, three surfaces: every training input is
// accepted or rejected the same way — with the same reason after the
// surface's prefix — by the C ABI (SWIFTRL_ERR_PARSE, the process
// lives), by the fleet job parser (at parse time, naming the job,
// before anything is scheduled) and by the swiftrl_cli training flags
// (through the readTrainParams() call the binary makes), because all
// three read through swiftrl/train_params. Session rules are also
// refused by the TrainerSession constructor, which asks the same
// sessionConfigInvalidReason(). Plus the tau rule every surface
// shares: tau > episodes is one round of all the episodes, never
// clamped or refused.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "capi/swiftrl.h"
#include "common/cli.hh"
#include "common/json.hh"
#include "fleet/job_spec.hh"
#include "pimsim/pim_system.hh"
#include "rlcore/qtable.hh"
#include "rlcore/serialization.hh"
#include "swiftrl/session.hh"
#include "swiftrl/swiftrl.hh"
#include "swiftrl/train_params.hh"

namespace {

using namespace swiftrl;

/** One rejected input, spelled as JSON members. */
struct BadValue
{
    /** JSON members for every surface (the CLI spells them as
     *  flags); null when JSON cannot spell the value (NaN). */
    const char *json;
    /** The same value applied to a SessionConfig; empty when the
     *  rule is not a session rule. */
    std::function<void(SessionConfig &)> apply;
    /** The reason every surface must report. */
    const char *reason;
    /** The CLI flag, for a value only the CLI can spell. */
    const char *cliFlag = nullptr;
};

const BadValue kBadValues[] = {
    {R"("tasklets": 0)", [](SessionConfig &c) { c.tasklets = 0; },
     "UPMEM DPUs support 1-24 tasklets, got 0"},
    {R"("tasklets": 25)", [](SessionConfig &c) { c.tasklets = 25; },
     "UPMEM DPUs support 1-24 tasklets, got 25"},
    {R"("tasklets": 30)", [](SessionConfig &c) { c.tasklets = 30; },
     "UPMEM DPUs support 1-24 tasklets, got 30"},
    // Past unsigned range: saturated, never wrapped round to 1.
    {R"("tasklets": 4294967297)",
     [](SessionConfig &c) { c.tasklets = 4294967295u; },
     "UPMEM DPUs support 1-24 tasklets, got 4294967295"},
    {R"("tau": 0)", [](SessionConfig &c) { c.tau = 0; },
     "synchronisation period tau must be positive, got 0"},
    {R"("episodes": 0)",
     [](SessionConfig &c) { c.hyper.episodes = 0; },
     "episode count must be positive, got 0"},
    {R"("stride": 0)", [](SessionConfig &c) { c.hyper.stride = 0; },
     "sampling stride must be positive, got 0"},
    {R"("block_transitions": 0)",
     [](SessionConfig &c) { c.blockTransitions = 0; },
     "staging block must hold at least one transition"},
    {R"("epsilon_decay": 0)",
     [](SessionConfig &c) { c.epsilonDecay = 0.0f; },
     "epsilon decay must be in (0, 1], got 0"},
    {R"("epsilon_decay": 1.5)",
     [](SessionConfig &c) { c.epsilonDecay = 1.5f; },
     "epsilon decay must be in (0, 1], got 1.5"},
    // Learning hyper-parameters: finite and in range.
    {R"("gamma": 7)", [](SessionConfig &c) { c.hyper.gamma = 7.0f; },
     "discount factor gamma must be in [0, 1], got 7"},
    // Past float range: infinity, never a silently huge rate.
    {R"("alpha": 1e39)",
     [](SessionConfig &c) {
         c.hyper.alpha = std::numeric_limits<float>::infinity();
     },
     "learning rate alpha must be in (0, 1], got inf"},
    {R"("alpha": 0)", [](SessionConfig &c) { c.hyper.alpha = 0.0f; },
     "learning rate alpha must be in (0, 1], got 0"},
    {R"("epsilon": -0.5)",
     [](SessionConfig &c) { c.hyper.epsilon = -0.5f; },
     "exploration rate epsilon must be in [0, 1], got -0.5"},
    {nullptr,
     [](SessionConfig &c) {
         c.hyper.alpha = std::numeric_limits<float>::quiet_NaN();
     },
     "learning rate alpha must be in (0, 1], got nan", "--alpha=nan"},
    {R"("shards": 2, "weighted": true)",
     [](SessionConfig &c) {
         c.shards = 2;
         c.weightedAggregation = true;
     },
     "sharded Q-tables do not support visit-weighted aggregation"},
    // Rules on the rest of the table.
    {R"("env": "nosuch")", {},
     "unknown environment 'nosuch'; known: frozenlake, "
     "frozenlake-det, taxi, cliffwalking, lake:<side>[:det], "
     "mptaxi:<side>x<P>"},
    {R"("transitions": 0)", {}, "\"transitions\" must be >= 1"},
    {R"("cores": 0)", {}, "\"cores\" must be >= 1"},
    {R"("cores": -1)", {}, "\"cores\" must not be negative, got -1"},
    // Past the ceilings: refused, never an allocation failure. (The
    // counts are 1e13 + 1, which the CLI column spells without an
    // exponent, as its integer flags need.)
    {R"("cores": 10000000000001, "transitions": 100)", {},
     "\"cores\" must be <= 65536"},
    {R"("transitions": 10000000000001)", {},
     "\"transitions\" must be <= 67108864"},
    {R"("seed": -1)", {}, "\"seed\" must not be negative, got -1"},
    {R"("host_threads": -2)", {},
     "\"host_threads\" must not be negative, got -2"},
    {R"("algo": "dqn")", {}, "\"algo\" must be qlearning or sarsa"},
    {R"("format": "fp64")", {},
     "\"format\" must be fp32, int32, or int8"},
    {R"("episodes": "many")", {}, "\"episodes\" must be a number"},
    {R"("env": "lake:64", "shards": 3, "cores": 2)", {},
     "\"shards\": more shards (3) than cores (2); every shard needs "
     "at least one replica core"},
};

/** One accepted input and the TrainParams every surface must
 *  produce from it. */
struct GoodValue
{
    const char *json;
    std::function<void(TrainParams &)> expect;
};

const GoodValue kGoodValues[] = {
    // No training keys: the table's defaults, on every surface.
    {"", [](TrainParams &) {}},
    // Saturated at INT_MAX, never wrapped to 2 / 1.
    {R"("episodes": 4294967298)",
     [](TrainParams &p) { p.session.hyper.episodes = INT_MAX; }},
    {R"("tau": 4294967297)",
     [](TrainParams &p) { p.session.tau = INT_MAX; }},
    // rlcore's spellings everywhere.
    {R"("algo": "Q")",
     [](TrainParams &p) {
         p.session.workload.algo = rlcore::Algorithm::QLearning;
     }},
    {R"("algo": "SARSA", "sampling": "Ran")",
     [](TrainParams &p) {
         p.session.workload.algo = rlcore::Algorithm::Sarsa;
         p.session.workload.sampling = rlcore::Sampling::Ran;
     }},
    {R"("format": "int8")",
     [](TrainParams &p) {
         p.session.workload.format = rlcore::NumericFormat::Int8;
     }},
    // seed trains, collect_seed collects: no derived seeds.
    {R"("seed": 7)", [](TrainParams &p) { p.session.hyper.seed = 7; }},
    {R"("collect_seed": 9, "env": "taxi", "transitions": 300)",
     [](TrainParams &p) {
         p.collectSeed = 9;
         p.env = "taxi";
         p.transitions = 300;
     }},
};

void
PrintTo(const BadValue &bad, std::ostream *os)
{
    *os << (bad.json ? bad.json : bad.cliFlag);
}

void
PrintTo(const GoodValue &good, std::ostream *os)
{
    *os << "{" << good.json << "}";
}

/** @p text as a POSIX extended regex matching it literally. */
std::string
literal(const std::string &text)
{
    std::string out;
    for (const char c : text) {
        if (std::strchr("\\^$.|?*+()[]{}", c))
            out += '\\';
        out += c;
    }
    return out;
}

json::JsonValue
membersOf(const char *members)
{
    const auto doc = json::parseJson(std::string("{") + members + "}");
    EXPECT_TRUE(doc.has_value()) << members;
    return doc.value_or(json::JsonValue{});
}

const TrainParamKey *
tableKey(const std::string &name)
{
    for (const TrainParamKey &key : trainParamTable()) {
        if (key.name == name)
            return &key;
    }
    return nullptr;
}

/** Whether @p surface has every key of @p members. */
bool
hasKeys(TrainSurface surface, const char *members)
{
    for (const auto &[name, value] : membersOf(members).members) {
        const TrainParamKey *key = tableKey(name);
        if (key == nullptr || !key->on(surface))
            return false;
    }
    return true;
}

/**
 * The argv swiftrl_cli would get for @p members ("--tasklets=30"),
 * or nullopt when a value has a type the flag parser itself refuses
 * (a flag's text is typed by its key, so "episodes": "many" has no
 * CLI spelling that reaches the table).
 */
std::optional<std::vector<std::string>>
cliArgs(const char *members)
{
    std::vector<std::string> args{"swiftrl_cli"};
    for (const auto &[name, value] : membersOf(members).members) {
        const TrainParamKey *key = tableKey(name);
        std::string text;
        switch (key->type) {
          case TrainParamType::Text:
            if (!value.isString())
                return std::nullopt;
            text = value.string;
            break;
          case TrainParamType::Integer:
          case TrainParamType::Number:
            if (!value.isNumber())
                return std::nullopt;
            text = json::jsonNumber(value.number);
            break;
          case TrainParamType::Flag:
            if (!value.isBool())
                return std::nullopt;
            text = value.boolean ? "true" : "false";
            break;
        }
        std::string flag(name);
        std::replace(flag.begin(), flag.end(), '_', '-');
        args.push_back("--" + flag + "=" + text);
    }
    return args;
}

/** The CLI column: the binary's own readTrainParams(flags) call. */
std::string
readCli(const std::vector<std::string> &args, TrainParams &params)
{
    std::vector<char *> argv;
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    const common::CliFlags flags(static_cast<int>(argv.size()),
                                 argv.data(), trainParamFlags());
    return readTrainParams(flags, params);
}

/** The C ABI column for accepted rows: the call
 *  swiftrl_session_create makes after its JSON-shape check (creating
 *  a session would go on to collect a dataset and build a machine). */
std::string
readCApi(const char *members, TrainParams &params)
{
    return readTrainParams(membersOf(members), TrainSurface::CApi,
                           params);
}

std::string
fleetSpec(const char *members)
{
    std::string job = R"({"id": "bad", "tenant": "t")";
    if (*members != '\0')
        job += std::string(", ") + members;
    return R"({"jobs": [)" + job + "}]}";
}

/** The fleet column: the parsed job's training fields. */
TrainParams
readFleet(const char *members)
{
    const auto spec = fleet::parseFleetSpec(fleetSpec(members));
    const fleet::JobSpec &job = spec.jobs.at(0);
    TrainParams params;
    params.env = job.env;
    params.transitions = job.transitions;
    params.collectSeed = job.collectSeed;
    params.session = fleet::sessionConfigFor(job);
    return params;
}

// --- rejected inputs ---------------------------------------------------

class BadTrainValue : public ::testing::TestWithParam<BadValue>
{
};

TEST_P(BadTrainValue, CApiReturnsParseErrorWithTheReason)
{
    const BadValue &bad = GetParam();
    if (!bad.json)
        GTEST_SKIP() << "no JSON spelling";
    const std::string params = std::string("{") + bad.json + "}";
    swiftrl_session *session = nullptr;
    EXPECT_EQ(swiftrl_session_create(params.c_str(), &session),
              SWIFTRL_ERR_PARSE);
    EXPECT_EQ(session, nullptr);
    swiftrl_session_free(session);
    EXPECT_EQ(std::string(swiftrl_last_error()),
              std::string("params_json: ") + bad.reason);
}

TEST_P(BadTrainValue, FleetParserRejectsTheJobAtParseTime)
{
    const BadValue &bad = GetParam();
    if (!bad.json || !hasKeys(TrainSurface::Fleet, bad.json))
        GTEST_SKIP() << "no fleet spelling";
    EXPECT_DEATH(fleet::parseFleetSpec(fleetSpec(bad.json)),
                 literal(std::string("fleet spec: job \"bad\": ") +
                         bad.reason));
}

TEST_P(BadTrainValue, CliFlagsReturnTheReason)
{
    const BadValue &bad = GetParam();
    const auto args =
        bad.cliFlag ? std::optional<std::vector<std::string>>(
                          {"swiftrl_cli", bad.cliFlag})
                    : cliArgs(bad.json);
    if (!args || (!bad.cliFlag && !hasKeys(TrainSurface::Cli, bad.json)))
        GTEST_SKIP() << "no CLI spelling";
    TrainParams params;
    EXPECT_EQ(readCli(*args, params), bad.reason);
}

TEST_P(BadTrainValue, TrainerSessionConstructorRefusesIt)
{
    const BadValue &bad = GetParam();
    if (!bad.apply)
        GTEST_SKIP() << "not a session rule";
    pimsim::PimConfig pim;
    pim.numDpus = 4;
    pimsim::PimSystem system(pim);
    SessionConfig cfg;
    bad.apply(cfg);
    EXPECT_DEATH(TrainerSession(system, cfg), literal(bad.reason));
}

INSTANTIATE_TEST_SUITE_P(Rules, BadTrainValue,
                         ::testing::ValuesIn(kBadValues));

// --- accepted inputs ---------------------------------------------------

class GoodTrainValue : public ::testing::TestWithParam<GoodValue>
{
  protected:
    TrainParams
    expected() const
    {
        TrainParams params;
        GetParam().expect(params);
        return params;
    }
};

TEST_P(GoodTrainValue, CApiReadsIt)
{
    TrainParams params;
    EXPECT_EQ(readCApi(GetParam().json, params), "");
    EXPECT_EQ(params, expected());
}

TEST_P(GoodTrainValue, FleetReadsIt)
{
    ASSERT_TRUE(hasKeys(TrainSurface::Fleet, GetParam().json));
    EXPECT_EQ(readFleet(GetParam().json), expected());
}

TEST_P(GoodTrainValue, CliReadsIt)
{
    const auto args = cliArgs(GetParam().json);
    ASSERT_TRUE(hasKeys(TrainSurface::Cli, GetParam().json) && args);
    TrainParams params;
    EXPECT_EQ(readCli(*args, params), "");
    EXPECT_EQ(params, expected());
}

INSTANTIATE_TEST_SUITE_P(Rules, GoodTrainValue,
                         ::testing::ValuesIn(kGoodValues));

// --- surface key lists -------------------------------------------------

TEST(TrainParamKeys, EachSurfaceRejectsKeysOutsideItsList)
{
    TrainParams params;
    EXPECT_EQ(readCApi(R"("episods": 5)", params),
              "unknown key \"episods\"");
    EXPECT_DEATH(fleet::parseFleetSpec(fleetSpec(R"("cores": 4)")),
                 literal("fleet spec: job \"bad\": unknown key "
                         "\"cores\""));
    EXPECT_EQ(readTrainParams(membersOf(R"("stride": 2)"),
                              TrainSurface::Cli, params),
              "unknown key \"stride\"");
}

TEST(TrainParamKeys, CliFlagsAreTheCliKeysSpelledWithDashes)
{
    std::vector<std::string> expected;
    for (const TrainParamKey &key : trainParamTable()) {
        if (!key.on(TrainSurface::Cli))
            continue;
        std::string flag(key.name);
        std::replace(flag.begin(), flag.end(), '_', '-');
        expected.push_back(flag);
    }
    EXPECT_EQ(trainParamFlags(), expected);
    EXPECT_NE(std::find(expected.begin(), expected.end(), "host-threads"),
              expected.end());
}

TEST(TrainParamKeys, JobSpecDefaultsAreTheTables)
{
    const fleet::JobSpec job;
    const TrainParams params;
    EXPECT_EQ(job.env, params.env);
    EXPECT_EQ(job.transitions, params.transitions);
    EXPECT_EQ(job.collectSeed, params.collectSeed);
    EXPECT_EQ(fleet::sessionConfigFor(job), params.session);
}

// --- serving_json ------------------------------------------------------

TEST(ServingJson, ValuesAreTypedLikeTheTrainingTable)
{
    const std::string path = ::testing::TempDir() + "serving_json.qt";
    rlcore::saveQTable(rlcore::QTable(16, 4), path);
    swiftrl_policy *policy = nullptr;

    // Wrong JSON types are refused, not replaced by the defaults.
    EXPECT_EQ(swiftrl_policy_load(
                  path.c_str(),
                  R"({"max_batch": "8", "max_wait_sec": "soon"})",
                  &policy),
              SWIFTRL_ERR_PARSE);
    EXPECT_EQ(policy, nullptr);
    EXPECT_EQ(std::string(swiftrl_last_error()),
              "serving_json: \"max_batch\" must be a number");
    EXPECT_EQ(swiftrl_policy_load(path.c_str(),
                                  R"({"max_wait_sec": "soon"})",
                                  &policy),
              SWIFTRL_ERR_PARSE);
    EXPECT_EQ(std::string(swiftrl_last_error()),
              "serving_json: \"max_wait_sec\" must be a number");
    EXPECT_EQ(swiftrl_policy_load(path.c_str(),
                                  R"({"max_batch": 0})", &policy),
              SWIFTRL_ERR_PARSE);
    EXPECT_EQ(std::string(swiftrl_last_error()),
              "serving_json: \"max_batch\" must be >= 1");

    // The smoke client's valid call still loads.
    ASSERT_EQ(swiftrl_policy_load(
                  path.c_str(),
                  R"({"max_batch": 8, "max_wait_sec": 0.0001})",
                  &policy),
              SWIFTRL_OK);
    EXPECT_NE(policy, nullptr);
    swiftrl_policy_free(policy);
}

// --- tau ---------------------------------------------------------------

TEST(TauRule, TauPastTheEpisodeBudgetIsOneRoundOfAllOfThem)
{
    const auto env = rlenv::makeEnvironment("frozenlake");
    const auto data = rlcore::collectRandomDataset(*env, 2000, 11);
    const auto run = [&](int tau) {
        pimsim::PimConfig pim;
        pim.numDpus = 8;
        pimsim::PimSystem system(pim);
        SessionConfig cfg;
        cfg.hyper.episodes = 12;
        cfg.tau = tau;
        return PimTrainer(system, cfg).train(data, env->numStates(),
                                             env->numActions());
    };
    const auto exact = run(12);
    const auto past = run(40);

    EXPECT_EQ(past.commRounds, 1);
    EXPECT_EQ(past.commRounds, exact.commRounds);
    ASSERT_EQ(past.finalQ.entryCount(), exact.finalQ.entryCount());
    EXPECT_EQ(std::memcmp(past.finalQ.values().data(),
                          exact.finalQ.values().data(),
                          exact.finalQ.entryCount() * sizeof(float)),
              0);
    EXPECT_EQ(past.time.kernel, exact.time.kernel);
    EXPECT_EQ(past.time.cpuToPim, exact.time.cpuToPim);
    EXPECT_EQ(past.time.pimToCpu, exact.time.pimToCpu);
    EXPECT_EQ(past.time.interCore, exact.time.interCore);
    EXPECT_EQ(past.time.hostCollect, exact.time.hostCollect);
    EXPECT_EQ(past.time.recovery, exact.time.recovery);
}

} // namespace
