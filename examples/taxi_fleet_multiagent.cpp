/**
 * @file
 * Multi-agent taxi fleet: the paper's Sec. 3.2.1 / 4.4 scenario on
 * the richer environment. Each taxi (agent) logs its own experience
 * dataset; one agent is pinned to each PIM core; all agents train
 * independent Q-tables concurrently with no inter-core communication;
 * the host retrieves every agent's policy at the end.
 *
 * Run: ./build/examples/taxi_fleet_multiagent [--agents N]
 *      [--transitions T] [--episodes E]
 */

#include <iostream>

#include "common/cli.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "swiftrl/swiftrl.hh"

int
main(int argc, char **argv)
{
    using namespace swiftrl;
    using common::TextTable;

    const common::CliFlags flags(argc, argv,
                                 {"agents", "transitions",
                                  "episodes"});
    const auto agents =
        static_cast<std::size_t>(flags.getInt("agents", 64));
    const auto transitions = static_cast<std::size_t>(
        flags.getInt("transitions", 100'000));
    const auto episodes =
        static_cast<int>(flags.getInt("episodes", 10));

    std::cout << "taxi fleet: " << agents << " independent agents, "
              << transitions << " private transitions each, "
              << episodes << " episodes\n\n";

    // Each taxi logs its own experiences (distinct seeds = distinct
    // shifts/routes).
    std::vector<rlcore::Dataset> fleet_data;
    fleet_data.reserve(agents);
    for (std::size_t i = 0; i < agents; ++i) {
        auto env = rlenv::makeEnvironment("taxi");
        fleet_data.push_back(rlcore::collectRandomDataset(
            *env, transitions, 500 + i));
    }

    pimsim::PimConfig pim;
    pim.numDpus = agents; // one agent per PIM core
    pimsim::PimSystem system(pim);

    SessionConfig cfg;
    cfg.workload = Workload{rlcore::Algorithm::QLearning,
                            rlcore::Sampling::Seq,
                            rlcore::NumericFormat::Int32};
    cfg.hyper.episodes = episodes;
    PimTrainer trainer(system, cfg);

    auto probe_env = rlenv::makeEnvironment("taxi");
    const auto result = trainer.trainMultiAgent(
        fleet_data, probe_env->numStates(), probe_env->numActions());

    // Evaluate every agent's private policy.
    common::RunningStat fleet;
    std::vector<double> rewards;
    for (std::size_t i = 0; i < agents; ++i) {
        auto env = rlenv::makeEnvironment("taxi");
        const auto eval = rlcore::evaluateGreedy(
            *env, result.perCore[i], 200, 7);
        fleet.add(eval.meanReward);
        rewards.push_back(eval.meanReward);
    }

    TextTable t("Fleet results");
    t.setHeader({"metric", "value"});
    t.addRow({"agents trained",
              TextTable::num(static_cast<long long>(agents))});
    t.addRow({"mean reward (fleet avg)",
              TextTable::num(fleet.mean(), 2)});
    t.addRow({"best agent", TextTable::num(fleet.max(), 2)});
    t.addRow({"worst agent", TextTable::num(fleet.min(), 2)});
    t.addRow({"median agent",
              TextTable::num(common::percentile(rewards, 50), 2)});
    t.addRow({"modelled kernel time",
              TextTable::num(result.time.kernel, 3) + " s"});
    t.addRow({"comm rounds (independent learners)",
              TextTable::num(static_cast<long long>(
                  result.commRounds))});
    t.print(std::cout);

    std::cout << "\nnote: a converged taxi policy averages ~+8 "
                 "(13-step ride + 20 dropoff); undertrained agents "
                 "sit lower. Increase --episodes/--transitions to "
                 "push the whole fleet up.\n";
    return 0;
}
