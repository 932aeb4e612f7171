/**
 * @file
 * Tests for multi-agent Q-learning on the PIM system (Sec. 3.2.1):
 * one independent learner pinned to each core, agent-specific
 * datasets, no synchronisation, no aggregation.
 */

#include <gtest/gtest.h>

#include "rlcore/evaluate.hh"
#include "swiftrl/swiftrl.hh"

namespace {

using swiftrl::SessionConfig;
using swiftrl::PimTrainer;
using swiftrl::Workload;
using swiftrl::pimsim::PimConfig;
using swiftrl::pimsim::PimSystem;
using swiftrl::rlcore::Algorithm;
using swiftrl::rlcore::collectRandomDataset;
using swiftrl::rlcore::Dataset;
using swiftrl::rlcore::evaluateGreedy;
using swiftrl::rlcore::Hyper;
using swiftrl::rlcore::NumericFormat;
using swiftrl::rlcore::QTable;
using swiftrl::rlcore::Sampling;
using swiftrl::rlcore::trainCpuReference;

PimSystem
makeSystem(std::size_t dpus)
{
    PimConfig cfg;
    cfg.numDpus = dpus;
    cfg.mramBytesPerDpu = 8u << 20;
    return PimSystem(cfg);
}

std::vector<Dataset>
agentDatasets(std::size_t agents, std::size_t transitions)
{
    std::vector<Dataset> out;
    out.reserve(agents);
    for (std::size_t i = 0; i < agents; ++i) {
        swiftrl::rlenv::FrozenLake env(true);
        out.push_back(
            collectRandomDataset(env, transitions, 100 + i));
    }
    return out;
}

SessionConfig
multiAgentConfig(int episodes)
{
    SessionConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Int32};
    cfg.hyper.episodes = episodes;
    cfg.hyper.seed = 42;
    return cfg;
}

TEST(MultiAgent, ProducesOneTablePerAgent)
{
    const auto data = agentDatasets(4, 300);
    auto system = makeSystem(4);
    PimTrainer trainer(system, multiAgentConfig(10));
    const auto result = trainer.trainMultiAgent(data, 16, 4);
    EXPECT_EQ(result.perCore.size(), 4u);
    EXPECT_EQ(result.coresUsed, 4u);
    EXPECT_EQ(result.commRounds, 0);
    EXPECT_DOUBLE_EQ(result.time.interCore, 0.0);
}

TEST(MultiAgent, EachAgentMatchesItsOwnReference)
{
    const auto data = agentDatasets(3, 250);
    auto system = makeSystem(3);
    const auto cfg = multiAgentConfig(15);
    PimTrainer trainer(system, cfg);
    const auto result = trainer.trainMultiAgent(data, 16, 4);

    for (std::size_t agent = 0; agent < 3; ++agent) {
        const auto reference = trainCpuReference(
            Algorithm::QLearning, data[agent], 16, 4, cfg.hyper,
            Sampling::Seq, NumericFormat::Int32,
            /*lcg_stream=*/agent);
        EXPECT_EQ(QTable::maxAbsDifference(result.perCore[agent],
                                           reference),
                  0.0f)
            << "agent " << agent << " diverged";
    }
}

TEST(MultiAgent, AgentsWithDistinctDataLearnDistinctTables)
{
    const auto data = agentDatasets(2, 400);
    auto system = makeSystem(2);
    PimTrainer trainer(system, multiAgentConfig(20));
    const auto result = trainer.trainMultiAgent(data, 16, 4);
    EXPECT_GT(QTable::maxAbsDifference(result.perCore[0],
                                       result.perCore[1]),
              0.0f);
}

TEST(MultiAgent, AgentsLearnUsablePolicies)
{
    const auto data = agentDatasets(2, 8000);
    auto system = makeSystem(2);
    PimTrainer trainer(system, multiAgentConfig(50));
    const auto result = trainer.trainMultiAgent(data, 16, 4);

    for (const auto &table : result.perCore) {
        swiftrl::rlenv::FrozenLake env(true);
        const auto eval = evaluateGreedy(env, table, 300, 5);
        EXPECT_GT(eval.meanReward, 0.3);
    }
}

TEST(MultiAgent, SingleLaunchNoSyncKernelTime)
{
    const auto data = agentDatasets(2, 300);
    auto system = makeSystem(2);
    PimTrainer trainer(system, multiAgentConfig(10));
    const auto result = trainer.trainMultiAgent(data, 16, 4);
    EXPECT_GT(result.time.kernel, 0.0);
    EXPECT_GT(result.time.cpuToPim, 0.0);
    EXPECT_GT(result.time.pimToCpu, 0.0);
}

TEST(MultiAgentDeath, AgentCountMustMatchCores)
{
    const auto data = agentDatasets(2, 100);
    auto system = makeSystem(3);
    PimTrainer trainer(system, multiAgentConfig(5));
    EXPECT_EXIT((void)trainer.trainMultiAgent(data, 16, 4),
                ::testing::ExitedWithCode(1), "one agent per core");
}

TEST(MultiAgentDeath, SarsaIsRejected)
{
    auto cfg = multiAgentConfig(5);
    cfg.workload.algo = Algorithm::Sarsa;
    auto system = makeSystem(2);
    PimTrainer trainer(system, cfg);
    const auto data = agentDatasets(2, 100);
    EXPECT_EXIT((void)trainer.trainMultiAgent(data, 16, 4),
                ::testing::ExitedWithCode(1), "independent");
}

TEST(MultiAgentDeath, EmptyAgentDatasetIsFatal)
{
    std::vector<Dataset> data(2);
    swiftrl::rlenv::FrozenLake env(true);
    data[0] = collectRandomDataset(env, 100, 1);
    // data[1] left empty
    auto system = makeSystem(2);
    PimTrainer trainer(system, multiAgentConfig(5));
    EXPECT_EXIT((void)trainer.trainMultiAgent(data, 16, 4),
                ::testing::ExitedWithCode(1), "empty dataset");
}

} // namespace
