/**
 * @file
 * Sampling-pattern study: why PIM tolerates random access and CPUs do
 * not. Runs the same Q-learning workload under SEQ, RAN, and STR
 * sampling on (a) the simulated PIM system and (b) the calibrated
 * Xeon model, and prints the slowdown of each pattern relative to
 * SEQ on each platform — the paper's key takeaway #4.
 *
 * Run: ./build/examples/sampling_patterns [--env frozenlake|taxi]
 *      [--transitions N]
 */

#include <iostream>

#include "baselines/platform_model.hh"
#include "common/cli.hh"
#include "common/table.hh"
#include "swiftrl/swiftrl.hh"

int
main(int argc, char **argv)
{
    using namespace swiftrl;
    using common::TextTable;
    using rlcore::Sampling;

    const common::CliFlags flags(argc, argv, {"env", "transitions"});
    const auto env_name = flags.getString("env", "taxi");
    const auto n = static_cast<std::size_t>(
        flags.getInt("transitions", 2'000'000));

    auto env = rlenv::makeEnvironment(env_name);
    const auto data = rlcore::collectRandomDataset(*env, n, 1);
    const auto q_entries =
        static_cast<std::size_t>(env->numStates()) *
        static_cast<std::size_t>(env->numActions());

    std::cout << "sampling-pattern study on " << env_name << ", " << n
              << " transitions\n\n";

    const auto cpu_spec = baselines::xeonSilver4110();
    const baselines::CpuModelParams cpu_params;

    TextTable t("Pattern cost relative to SEQ (lower = pattern-"
                "insensitive)");
    t.setHeader({"pattern", "PIM kernel s", "PIM slowdown",
                 "CPU (model) s", "CPU slowdown"});

    double pim_seq = 0.0, cpu_seq = 0.0;
    for (const auto sampling :
         {Sampling::Seq, Sampling::Ran, Sampling::Str}) {
        pimsim::PimConfig pim;
        pim.numDpus = 256;
        pimsim::PimSystem system(pim);
        SessionConfig cfg;
        cfg.workload = Workload{rlcore::Algorithm::QLearning, sampling,
                                rlcore::NumericFormat::Int32};
        cfg.hyper.episodes = 5;
        cfg.tau = 5;
        PimTrainer trainer(system, cfg);
        const auto result =
            trainer.train(data, env->numStates(), env->numActions());

        const double cpu_s = baselines::estimateCpuSeconds(
            cpu_spec, cpu_params, baselines::CpuVersion::V1,
            rlcore::Algorithm::QLearning, sampling,
            env->numActions(), q_entries, n, 5);

        if (sampling == Sampling::Seq) {
            pim_seq = result.time.kernel;
            cpu_seq = cpu_s;
        }
        t.addRow({rlcore::samplingName(sampling),
                  TextTable::num(result.time.kernel, 3),
                  TextTable::speedup(result.time.kernel / pim_seq, 2),
                  TextTable::num(cpu_s, 3),
                  TextTable::speedup(cpu_s / cpu_seq, 2)});
    }
    t.print(std::cout);

    std::cout
        << "\nreading: near-bank DRAM latency is flat, so random "
           "draws cost the PIM only its per-record DMA setup; the "
           "CPU loses its hardware prefetcher and pays a cache miss "
           "per draw once the dataset outgrows the LLC (the paper's "
           "Key Takeaway 4).\n";
    return 0;
}
