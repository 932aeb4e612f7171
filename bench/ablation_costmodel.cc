/**
 * @file
 * Ablation A1 (ours): how sensitive are the paper-shape conclusions
 * to the DPU cost-model calibration?
 *
 * Sweeps (a) the FP32 software-emulation cost, (b) the single-tasklet
 * pipeline interval, and (c) the host scatter overhead, and reports
 * the two conclusions that must survive: INT32 beats FP32 on-core,
 * and kernel scaling stays near-linear.
 */

#include <iostream>

#include "bench/bench_common.hh"

namespace {

using namespace swiftrl;
using common::TextTable;
using rlcore::Algorithm;
using rlcore::NumericFormat;
using rlcore::Sampling;

/** Kernel seconds for one workload on a customised system. */
double
kernelSeconds(const pimsim::PimConfig &pim_cfg,
              const rlcore::Dataset &data, NumericFormat format)
{
    pimsim::PimSystem system(pim_cfg);
    SessionConfig cfg;
    cfg.workload =
        Workload{Algorithm::QLearning, Sampling::Seq, format};
    cfg.hyper.episodes = 5;
    cfg.tau = 5;
    PimTrainer trainer(system, cfg);
    return trainer.train(data, 16, 4).time.kernel;
}

} // namespace

int
main(int argc, char **argv)
{
    const common::CliFlags flags(argc, argv, {"transitions"});
    const auto n = static_cast<std::size_t>(
        flags.getInt("transitions", 20'000));

    bench::banner("Ablation A1: cost-model sensitivity", false,
                  "Q-learner-SEQ, frozen lake, n=" +
                      std::to_string(n) + ", 64 cores, 5 episodes");

    const auto data = bench::collectDataset("frozenlake", n, 1);

    // --- (a) FP32 emulation cost sweep --------------------------------
    TextTable a("FP32 emulation cost sweep (multiplier on fp32 "
                "add/mul/div/cmp instruction counts)");
    a.setHeader({"fp32 cost x", "FP32 kernel s", "INT32 kernel s",
                 "INT32 speedup"});
    bool int32_always_wins = true;
    for (const double mult : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        pimsim::PimConfig cfg;
        cfg.numDpus = 64;
        using pimsim::OpClass;
        for (const auto op :
             {OpClass::Fp32Add, OpClass::Fp32Mul, OpClass::Fp32Div,
              OpClass::Fp32Cmp}) {
            auto &slot =
                cfg.costModel
                    .instructions[static_cast<std::size_t>(op)];
            slot = std::max<pimsim::Cycles>(
                1, static_cast<pimsim::Cycles>(
                       static_cast<double>(slot) * mult));
        }
        const double fp =
            kernelSeconds(cfg, data, NumericFormat::Fp32);
        const double fx =
            kernelSeconds(cfg, data, NumericFormat::Int32);
        int32_always_wins &= fx < fp;
        a.addRow({TextTable::num(mult, 2), TextTable::num(fp, 3),
                  TextTable::num(fx, 3),
                  TextTable::speedup(fp / fx, 2)});
    }
    a.print(std::cout);

    // --- (b) pipeline interval sweep -----------------------------------
    TextTable b("Pipeline interval sweep (cycles per retired "
                "instruction at 1 tasklet)");
    b.setHeader({"interval", "FP32 kernel s", "INT32 speedup"});
    for (const pimsim::Cycles interval : {1ull, 6ull, 11ull, 14ull}) {
        pimsim::PimConfig cfg;
        cfg.numDpus = 64;
        cfg.costModel.pipelineInterval = interval;
        const double fp =
            kernelSeconds(cfg, data, NumericFormat::Fp32);
        const double fx =
            kernelSeconds(cfg, data, NumericFormat::Int32);
        int32_always_wins &= fx < fp;
        b.addRow({TextTable::num(static_cast<long long>(interval)),
                  TextTable::num(fp, 3),
                  TextTable::speedup(fp / fx, 2)});
    }
    b.print(std::cout);

    // --- (c) scatter overhead sweep ------------------------------------
    TextTable c("Host scatter overhead sweep (per-DPU cost of the "
                "initial chunk distribution, 2000 cores; share "
                "computed against a 2000-episode kernel)");
    c.setHeader({"scatter us/DPU", "setup s", "setup share of "
                                              "setup+kernel"});
    const auto big_data = bench::collectDataset("frozenlake",
                                                100'000, 1);
    for (const double us : {0.0, 50.0, 100.0, 500.0}) {
        pimsim::PimConfig cfg;
        cfg.numDpus = 2000;
        cfg.transferModel.scatterPerDpuSec = us * 1e-6;
        pimsim::PimSystem system(cfg);
        SessionConfig tcfg;
        tcfg.workload = Workload{Algorithm::QLearning, Sampling::Str,
                                 NumericFormat::Int32};
        tcfg.hyper.episodes = 5;
        tcfg.tau = 5;
        PimTrainer trainer(system, tcfg);
        const auto r = trainer.train(big_data, 16, 4);
        // Kernel time is linear in episodes: extrapolate the 5
        // simulated episodes to the paper's 2,000 before taking the
        // share, as Figure 5 would see it.
        const double kernel_full = r.time.kernel * (2000.0 / 5.0);
        const double share =
            r.time.cpuToPim / (r.time.cpuToPim + kernel_full);
        c.addRow({TextTable::num(us, 0),
                  TextTable::num(r.time.cpuToPim, 3),
                  TextTable::percent(share, 1)});
    }
    c.print(std::cout);

    std::cout << "\nconclusion check (INT32 faster than FP32 at every "
                 "calibration): "
              << (int32_always_wins ? "ROBUST" : "SENSITIVE") << "\n";
    return 0;
}
