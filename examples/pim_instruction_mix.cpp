/**
 * @file
 * Instruction-mix study: what do the PIM cores actually spend cycles
 * on? Runs the FP32 and INT32 Q-learning kernels and dumps the
 * simulator's per-op-class statistics — making the paper's central
 * observation ("instruction emulation by the runtime library" costs
 * the FP32 kernels their performance) directly visible.
 *
 * Run: ./build/examples/pim_instruction_mix [--transitions N]
 */

#include <iostream>

#include "common/cli.hh"
#include "pimsim/stats_report.hh"
#include "swiftrl/swiftrl.hh"

int
main(int argc, char **argv)
{
    using namespace swiftrl;
    using rlcore::Algorithm;
    using rlcore::NumericFormat;
    using rlcore::Sampling;

    const common::CliFlags flags(argc, argv, {"transitions"});
    const auto n = static_cast<std::size_t>(
        flags.getInt("transitions", 50'000));

    auto env = rlenv::makeEnvironment("frozenlake");
    const auto data = rlcore::collectRandomDataset(*env, n, 1);

    for (const auto format :
         {NumericFormat::Fp32, NumericFormat::Int32,
          NumericFormat::Int8}) {
        pimsim::PimConfig pim;
        pim.numDpus = 64;
        pimsim::PimSystem system(pim);

        SessionConfig cfg;
        cfg.workload =
            Workload{Algorithm::QLearning, Sampling::Seq, format};
        cfg.hyper.episodes = 5;
        cfg.tau = 5;
        PimTrainer trainer(system, cfg);
        trainer.train(data, env->numStates(), env->numActions());

        const auto report = pimsim::StatsReport::fromSystem(system);
        report.print(std::cout,
                     std::string("Instruction mix: Q-learner-SEQ-") +
                         rlcore::numericFormatName(format));
        std::cout << "\n";
    }

    std::cout << "reading: the FP32 kernel burns the vast majority "
                 "of its cycles in softfloat emulation (fp32_add/"
                 "mul/cmp); the INT32 scaling optimisation shifts "
                 "the mix to cheap native ALU ops plus a few "
                 "emulated multiplies; INT8 removes even those. "
                 "The measured arithmetic intensity (ops per DMA "
                 "byte) confirms the workload stays memory-light "
                 "per transition, matching Fig. 2's roofline "
                 "placement.\n";
    return 0;
}
