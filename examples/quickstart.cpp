/**
 * @file
 * Quickstart: the SwiftRL pipeline end to end in ~40 lines.
 *
 *   1. Collect an offline dataset with a random behaviour policy.
 *   2. Build a simulated UPMEM-like PIM system.
 *   3. Train tabular Q-learning (INT32 fixed point, sequential
 *      sampling) across the PIM cores with tau-periodic averaging.
 *   4. Evaluate the deployed greedy policy and print the modelled
 *      execution-time breakdown.
 *
 * Build: cmake --build build --target quickstart
 * Run:   ./build/examples/quickstart
 */

#include <iostream>

#include "swiftrl/swiftrl.hh"

int
main()
{
    using namespace swiftrl;

    // 1. Offline data: 100k transitions of slippery frozen lake.
    auto env = rlenv::makeEnvironment("frozenlake");
    auto data = rlcore::collectRandomDataset(*env, 100'000, /*seed=*/1);
    std::cout << "collected " << data.size()
              << " transitions from " << env->name() << "\n";

    // 2. A 256-core PIM system with the default UPMEM-like model.
    pimsim::PimConfig pim;
    pim.numDpus = 256;
    pimsim::PimSystem system(pim);

    // 3. Train Q-learning-SEQ-INT32 for 100 episodes, tau = 25.
    SessionConfig cfg;
    cfg.workload = Workload{rlcore::Algorithm::QLearning,
                            rlcore::Sampling::Seq,
                            rlcore::NumericFormat::Int32};
    cfg.hyper.episodes = 100;
    cfg.tau = 25;
    PimTrainer trainer(system, cfg);
    const auto result =
        trainer.train(data, env->numStates(), env->numActions());

    // 4. Deploy the aggregated policy.
    const auto eval =
        rlcore::evaluateGreedy(*env, result.finalQ, 1000, /*seed=*/7);

    std::cout << "workload:        " << cfg.workload.name() << "\n"
              << "PIM cores:       " << result.coresUsed << "\n"
              << "comm rounds:     " << result.commRounds << "\n"
              << "mean reward:     " << eval.meanReward
              << " (random policy: ~0.01, optimum: ~0.74)\n"
              << "modelled time:   " << result.time.total() << " s\n"
              << "  kernel:        " << result.time.kernel << " s\n"
              << "  cpu->pim:      " << result.time.cpuToPim << " s\n"
              << "  pim->cpu:      " << result.time.pimToCpu << " s\n"
              << "  inter-core:    " << result.time.interCore
              << " s\n";
    return 0;
}
