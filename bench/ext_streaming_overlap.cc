/**
 * @file
 * Extension E6: streaming actor–learner overlap.
 *
 * The paper's flow is strictly offline: collect the whole dataset,
 * then train (Sec. 3.2.1). The streaming extension pipelines the two
 * — CPU actors collect generation k+1 while the PIM side trains
 * generation k — so most of the host collection time hides under PIM
 * kernel time. This harness quantifies the hiding: the same
 * generation schedule runs once with overlap and once strictly
 * sequentially (StreamingConfig::overlap=false), at *equal transition
 * counts and bit-identical final Q-tables* (overlap changes only the
 * timing gates), and the table reports the modelled end-to-end
 * speedup across actor-thread counts.
 */

#include <algorithm>
#include <iostream>

#include "bench/bench_common.hh"
#include "rlcore/collection.hh"
#include "rlcore/qtable.hh"
#include "rlenv/registry.hh"

int
main(int argc, char **argv)
{
    using namespace swiftrl;
    using common::TextTable;
    using rlcore::Algorithm;
    using rlcore::NumericFormat;
    using rlcore::Sampling;

    const common::CliFlags flags(
        argc, argv, {"full", "cores", "generations", "transitions"});
    const bool full = flags.getBool("full", false);
    const auto cores = static_cast<std::size_t>(
        flags.getInt("cores", full ? 500 : 64));
    const auto generations =
        static_cast<int>(flags.getInt("generations", 8));
    const auto per_gen = static_cast<std::size_t>(flags.getInt(
        "transitions", full ? 50'000 : 8'192));

    bench::banner(
        "Extension E6: streaming collect/train overlap",
        full,
        "taxi, Q-learner-SEQ-INT32, " + std::to_string(generations) +
            " generations x " + std::to_string(per_gen) +
            " transitions, cores=" + std::to_string(cores) +
            ", refresh-period=2");

    const std::string env_name = "taxi";
    auto probe = rlenv::makeEnvironment(env_name);
    const auto num_states = probe->numStates();
    const auto num_actions = probe->numActions();

    const auto run = [&](unsigned actors, bool overlap, int episodes,
                         unsigned tasklets, std::size_t run_cores,
                         std::size_t run_per_gen) {
        auto system = bench::makePimSystem(run_cores);
        StreamingConfig cfg;
        cfg.session.workload = Workload{
            Algorithm::QLearning, Sampling::Seq, NumericFormat::Int32};
        cfg.session.hyper.episodes = episodes;
        cfg.session.tau = std::min(10, episodes);
        cfg.generations = generations;
        cfg.transitionsPerGeneration = run_per_gen;
        cfg.actors = actors;
        cfg.session.tasklets = tasklets;
        cfg.refreshPeriod = 2;
        cfg.overlap = overlap;
        StreamingTrainer trainer(system, cfg);
        return trainer.train(
            [&env_name] { return rlenv::makeEnvironment(env_name); },
            num_states, num_actions);
    };
    const int episodes_per_gen = full ? 50 : 20;

    TextTable t("Modelled end-to-end time, overlap vs sequential "
                "(equal transitions, bit-identical Q)");
    t.setHeader({"actors", "sequential (s)", "streaming (s)",
                 "hidden collect (s)", "speedup"});

    bool all_faster = true;
    bool all_identical = true;
    for (const unsigned actors : {1u, 2u, 4u, 8u}) {
        const auto seq = run(actors, /*overlap=*/false,
                             episodes_per_gen, 1, cores, per_gen);
        const auto str = run(actors, /*overlap=*/true,
                             episodes_per_gen, 1, cores, per_gen);
        all_faster = all_faster && str.endToEnd < seq.endToEnd;
        all_identical =
            all_identical &&
            rlcore::QTable::maxAbsDifference(seq.finalQ, str.finalQ) ==
                0.0f;
        t.addRow({TextTable::num(static_cast<long long>(actors)),
                  TextTable::num(seq.endToEnd, 4),
                  TextTable::num(str.endToEnd, 4),
                  TextTable::num(seq.endToEnd - str.endToEnd, 4),
                  TextTable::speedup(seq.endToEnd / str.endToEnd, 2)});
    }
    t.print(std::cout);

    // Second regime: few cores, many transitions, max useful
    // tasklets, short per-generation training — collection is no
    // longer negligible against the PIM pipeline, so the overlap
    // saving grows toward the collection share of the schedule.
    const std::size_t cores2 = 8;
    const std::size_t per_gen2 = per_gen * 4;
    TextTable t2("Actor-bound regime: " + std::to_string(cores2) +
                 " cores, " + std::to_string(per_gen2) +
                 " transitions/gen, 16 tasklets, 1 actor");
    t2.setHeader({"episodes/gen", "sequential (s)", "streaming (s)",
                  "collect share", "speedup"});
    for (const int episodes : {1, 2, 5, episodes_per_gen}) {
        const auto seq = run(1, /*overlap=*/false, episodes, 16,
                             cores2, per_gen2);
        const auto str = run(1, /*overlap=*/true, episodes, 16,
                             cores2, per_gen2);
        all_faster = all_faster && str.endToEnd < seq.endToEnd;
        all_identical =
            all_identical &&
            rlcore::QTable::maxAbsDifference(seq.finalQ, str.finalQ) ==
                0.0f;
        t2.addRow(
            {TextTable::num(static_cast<long long>(episodes)),
             TextTable::num(seq.endToEnd, 4),
             TextTable::num(str.endToEnd, 4),
             TextTable::num(seq.collectSeconds / seq.endToEnd, 2),
             TextTable::speedup(seq.endToEnd / str.endToEnd, 2)});
    }
    t2.print(std::cout);

    std::cout << "\nclaim check: streaming strictly faster at every "
                 "actor count: "
              << (all_faster ? "yes" : "NO — REGRESSION")
              << "; final Q bit-identical to sequential: "
              << (all_identical ? "yes" : "NO — REGRESSION") << "\n";

    std::cout
        << "\nreading: with one actor the entire collection of "
           "generations 2..N hides under the previous generation's "
           "kernels, so the saving approaches the total collect time "
           "minus the first (unhideable) generation. More actors "
           "shrink each collection slice itself, which reduces the "
           "absolute saving but keeps the streaming run strictly "
           "faster; the speedup is purely schedule overlap — the "
           "functional command order, and therefore the learned "
           "Q-table, is identical in both modes.\n";
    return all_faster && all_identical ? 0 : 1;
}
