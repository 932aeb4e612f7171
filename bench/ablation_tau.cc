/**
 * @file
 * Ablation A2 (ours): the synchronisation period tau beyond the
 * paper's {10, 25, 50} — the quality-vs-communication tradeoff of
 * federated tabular Q-learning on PIM.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "rlcore/evaluate.hh"

int
main(int argc, char **argv)
{
    using namespace swiftrl;
    using common::TextTable;
    using rlcore::Algorithm;
    using rlcore::NumericFormat;
    using rlcore::Sampling;

    const common::CliFlags flags(argc, argv,
                                 {"transitions", "episodes",
                                  "cores"});
    const auto n = static_cast<std::size_t>(
        flags.getInt("transitions", 500'000));
    const auto episodes =
        static_cast<int>(flags.getInt("episodes", 100));
    const auto cores =
        static_cast<std::size_t>(flags.getInt("cores", 16));

    bench::banner("Ablation A2: synchronisation period tau sweep",
                  false,
                  "Q-learner-SEQ-INT32, frozen lake, n=" +
                      std::to_string(n) + ", episodes=" +
                      std::to_string(episodes) + ", cores=" +
                      std::to_string(cores));

    const auto data = bench::collectDataset("frozenlake", n, 1);

    TextTable t("Quality and communication vs tau");
    t.setHeader({"tau", "comm rounds", "mean reward",
                 "inter-core s", "inter-core share"});
    for (const int tau : {2, 5, 10, 25, 50, 100}) {
        if (tau > episodes)
            break;
        auto system = bench::makePimSystem(cores);
        SessionConfig cfg;
        cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                                NumericFormat::Int32};
        cfg.hyper.episodes = episodes;
        cfg.tau = tau;
        PimTrainer trainer(system, cfg);
        const auto r = trainer.train(data, 16, 4);

        auto eval_env = rlenv::makeEnvironment("frozenlake");
        const auto eval =
            rlcore::evaluateGreedy(*eval_env, r.finalQ, 1000, 7);

        t.addRow({TextTable::num(static_cast<long long>(tau)),
                  TextTable::num(static_cast<long long>(
                      r.commRounds)),
                  TextTable::num(eval.meanReward, 4),
                  TextTable::num(r.time.interCore, 4),
                  TextTable::percent(
                      r.time.fractionOf(r.time.interCore), 1)});
    }
    t.print(std::cout);

    std::cout << "\nreading: smaller tau buys (at most marginal) "
                 "quality for linearly more inter-core "
                 "communication; at convergence the paper's tau=50 "
                 "is quality-neutral and cheapest.\n";
    return 0;
}
