/**
 * @file
 * Extension E4: weak scaling. The paper runs strong scaling (fixed
 * dataset, more cores); the complementary experiment fixes the
 * *per-core* chunk (500 transitions, the paper's 2,000-core working
 * set) and grows the dataset with the machine. Ideal weak scaling
 * holds kernel time flat while total throughput grows linearly —
 * the claim behind "PIM is beneficial ... for a given working set
 * size" generalised to growing datasets.
 */

#include <iostream>

#include "bench/bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace swiftrl;
    using common::TextTable;
    using rlcore::Algorithm;
    using rlcore::NumericFormat;
    using rlcore::Sampling;

    const common::CliFlags flags(argc, argv,
                                 {"chunk", "episodes"});
    const auto chunk =
        static_cast<std::size_t>(flags.getInt("chunk", 500));
    const auto episodes =
        static_cast<int>(flags.getInt("episodes", 50));

    bench::banner(
        "Extension E4: weak scaling (fixed 500-transition chunk per "
        "core)",
        false,
        "frozen lake, Q-learner-SEQ-INT32, chunk=" +
            std::to_string(chunk) + ", episodes=" +
            std::to_string(episodes) + ", tau=" +
            std::to_string(episodes));

    TextTable t("Weak scaling: kernel time should stay flat");
    t.setHeader({"cores", "transitions", "kernel s", "total s",
                 "updates/s (modelled)"});

    double first_kernel = 0.0;
    bool flat = true;
    for (const auto cores : swiftrl::bench::kPaperCoreCounts) {
        const std::size_t n = cores * chunk;
        auto env = rlenv::makeEnvironment("frozenlake");
        const auto data = rlcore::collectRandomDataset(*env, n, 1);

        auto system = bench::makePimSystem(cores);
        SessionConfig cfg;
        cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                                NumericFormat::Int32};
        cfg.hyper.episodes = episodes;
        cfg.tau = episodes;
        PimTrainer trainer(system, cfg);
        const auto r = trainer.train(data, env->numStates(),
                                     env->numActions());

        if (first_kernel == 0.0)
            first_kernel = r.time.kernel;
        flat &= r.time.kernel < 1.10 * first_kernel;

        const double updates = static_cast<double>(n) *
                               static_cast<double>(episodes);
        t.addRow({TextTable::num(static_cast<long long>(cores)),
                  TextTable::num(static_cast<long long>(n)),
                  TextTable::num(r.time.kernel, 4),
                  TextTable::num(r.time.total(), 4),
                  TextTable::num(updates / r.time.kernel / 1e6, 1) +
                      "M"});
    }
    t.print(std::cout);

    std::cout << "\nweak-scaling check (kernel time flat within "
                 "10%): "
              << (flat ? "HOLDS" : "DOES NOT HOLD") << "\n";
    return flat ? 0 : 1;
}
