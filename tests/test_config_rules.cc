// One rule set, three surfaces: every bad session value is rejected
// with the same reason by the C ABI (SWIFTRL_ERR_PARSE, the process
// lives), by the fleet job parser (at parse time, naming the job,
// before anything is scheduled), and by the TrainerSession
// constructor — because all three ask sessionConfigInvalidReason().
// Plus the tau rule every surface shares: tau > episodes is one round
// of all the episodes, never clamped or refused.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "capi/swiftrl.h"
#include "fleet/job_spec.hh"
#include "pimsim/pim_system.hh"
#include "swiftrl/session.hh"
#include "swiftrl/swiftrl.hh"

namespace {

using namespace swiftrl;

/** One bad value, spelled for each surface. */
struct BadValue
{
    /** JSON members for params_json and the fleet job object. */
    const char *json;
    /** The same value applied to a SessionConfig. */
    std::function<void(SessionConfig &)> apply;
    /** Whether the fleet job schema has these keys. */
    bool inFleetSchema;
    /** The reason every surface must report. */
    const char *reason;
};

const BadValue kBadValues[] = {
    {R"("tasklets": 0)", [](SessionConfig &c) { c.tasklets = 0; },
     true, "UPMEM DPUs support 1-24 tasklets, got 0"},
    {R"("tasklets": 25)", [](SessionConfig &c) { c.tasklets = 25; },
     true, "UPMEM DPUs support 1-24 tasklets, got 25"},
    {R"("tasklets": 30)", [](SessionConfig &c) { c.tasklets = 30; },
     true, "UPMEM DPUs support 1-24 tasklets, got 30"},
    // Past unsigned range: saturated, never wrapped round to 1.
    {R"("tasklets": 4294967297)",
     [](SessionConfig &c) { c.tasklets = 4294967295u; }, true,
     "UPMEM DPUs support 1-24 tasklets, got 4294967295"},
    {R"("tau": 0)", [](SessionConfig &c) { c.tau = 0; }, true,
     "synchronisation period tau must be positive, got 0"},
    {R"("episodes": 0)",
     [](SessionConfig &c) { c.hyper.episodes = 0; }, true,
     "episode count must be positive, got 0"},
    {R"("stride": 0)", [](SessionConfig &c) { c.hyper.stride = 0; },
     false, "sampling stride must be positive, got 0"},
    {R"("block_transitions": 0)",
     [](SessionConfig &c) { c.blockTransitions = 0; }, false,
     "staging block must hold at least one transition"},
    {R"("epsilon_decay": 0)",
     [](SessionConfig &c) { c.epsilonDecay = 0.0f; }, false,
     "epsilon decay must be in (0, 1], got 0"},
    {R"("epsilon_decay": 1.5)",
     [](SessionConfig &c) { c.epsilonDecay = 1.5f; }, false,
     "epsilon decay must be in (0, 1], got 1.5"},
    {R"("shards": 2, "weighted": true)",
     [](SessionConfig &c) {
         c.shards = 2;
         c.weightedAggregation = true;
     },
     false,
     "sharded Q-tables do not support visit-weighted aggregation"},
};

/** Name the row in gtest output by its JSON spelling. */
void
PrintTo(const BadValue &bad, std::ostream *os)
{
    *os << bad.json;
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

class BadSessionValue : public ::testing::TestWithParam<BadValue>
{
};

TEST_P(BadSessionValue, CApiReturnsParseErrorWithTheReason)
{
    const BadValue &bad = GetParam();
    const std::string params =
        std::string(R"({"env": "frozenlake", "cores": 4, )"
                    R"("transitions": 64, )") +
        bad.json + "}";
    swiftrl_session *session = nullptr;
    EXPECT_EQ(swiftrl_session_create(params.c_str(), &session),
              SWIFTRL_ERR_PARSE);
    EXPECT_EQ(session, nullptr);
    swiftrl_session_free(session);
    EXPECT_EQ(std::string(swiftrl_last_error()),
              std::string("params_json: ") + bad.reason);
}

/** The fleet job schema spells only some session keys (tau,
 *  episodes, tasklets); the other rows have no fleet spelling. */
class FleetBadSessionValue : public BadSessionValue
{
};

TEST_P(FleetBadSessionValue, FleetParserRejectsTheJobAtParseTime)
{
    const BadValue &bad = GetParam();
    const std::string spec =
        std::string(R"({"jobs": [{"id": "bad", "tenant": "t", )") +
        bad.json + "}]}";
    EXPECT_DEATH(fleet::parseFleetSpec(spec),
                 literal(std::string("fleet spec: job \"bad\": ") +
                         bad.reason));
}

TEST_P(BadSessionValue, TrainerSessionConstructorRefusesIt)
{
    const BadValue &bad = GetParam();
    pimsim::PimConfig pim;
    pim.numDpus = 4;
    pimsim::PimSystem system(pim);
    SessionConfig cfg;
    bad.apply(cfg);
    EXPECT_DEATH(TrainerSession(system, cfg), literal(bad.reason));
}

std::vector<BadValue>
fleetRows()
{
    std::vector<BadValue> rows;
    for (const BadValue &bad : kBadValues) {
        if (bad.inFleetSchema)
            rows.push_back(bad);
    }
    return rows;
}

INSTANTIATE_TEST_SUITE_P(Rules, BadSessionValue,
                         ::testing::ValuesIn(kBadValues));
INSTANTIATE_TEST_SUITE_P(Rules, FleetBadSessionValue,
                         ::testing::ValuesIn(fleetRows()));

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
