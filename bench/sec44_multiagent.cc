/**
 * @file
 * Section 4.4 reproduction: multi-agent Q-learning. 1,000 and 2,000
 * independent agents, each with a private 10,000-transition frozen
 * lake dataset, trained for 2,000 episodes — one agent pinned per PIM
 * core — against a CPU baseline running the same independent
 * learners.
 *
 * Paper anchors: CPU 996.52 s (1,000 agents) and 1,943.78 s (2,000
 * agents); PIM speedups 11.23x and 21.92x respectively.
 */

#include <iostream>

#include "baselines/platform_model.hh"
#include "bench/bench_common.hh"

namespace {

using namespace swiftrl;
using common::TextTable;
using rlcore::Algorithm;
using rlcore::Dataset;
using rlcore::NumericFormat;
using rlcore::Sampling;

constexpr std::size_t kTransitionsPerAgent = 10'000;
constexpr int kEpisodes = 2000;

/**
 * PIM multi-agent time, projected to the full episode count (one
 * launch is simulated with a reduced episode count; kernel time is
 * linear in episodes, transfers are one-off).
 */
double
pimMultiAgentSeconds(std::size_t agents, int simulated_episodes)
{
    std::vector<Dataset> data;
    data.reserve(agents);
    for (std::size_t i = 0; i < agents; ++i) {
        // Agents log individual experiences: distinct seeds.
        auto env = rlenv::makeEnvironment("frozenlake");
        data.push_back(rlcore::collectRandomDataset(
            *env, kTransitionsPerAgent, 1000 + i));
    }

    auto system = bench::makePimSystem(agents);
    SessionConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Int32};
    cfg.hyper.episodes = simulated_episodes;
    PimTrainer trainer(system, cfg);
    const auto r = trainer.trainMultiAgent(data, 16, 4);

    const double episode_scale = static_cast<double>(kEpisodes) /
                                 static_cast<double>(
                                     simulated_episodes);
    return r.time.kernel * episode_scale + r.time.cpuToPim +
           r.time.pimToCpu;
}

/**
 * CPU baseline: the paper's multiple independent tabular Q-learners
 * on the Xeon, swept sequentially. The paper's own numbers imply a
 * serial loop — 996.5 s for 2e10 updates is ~20M updates/s, one
 * thread's worth, and the time doubles linearly from 1,000 to 2,000
 * agents — so the model prices the combined update stream at the
 * single-thread dependent-chain latency.
 */
double
cpuMultiAgentSeconds(std::size_t agents)
{
    const swiftrl::baselines::CpuModelParams params;
    const auto mix = swiftrl::baselines::updateOpMix(
        Algorithm::QLearning, 4);
    const double per_update_ns =
        params.baseLatencyNs + mix.flops * params.flopLatencyNs;
    const double updates = static_cast<double>(agents) *
                           static_cast<double>(kTransitionsPerAgent) *
                           static_cast<double>(kEpisodes);
    return updates * per_update_ns * 1e-9;
}

} // namespace

int
main(int argc, char **argv)
{
    const common::CliFlags flags(argc, argv,
                                 {"full", "sim-episodes"});
    const bool full = flags.getBool("full", false);
    const int sim_episodes =
        static_cast<int>(flags.getInt("sim-episodes", full ? 20 : 2));

    bench::banner(
        "Section 4.4: multi-agent Q-learning (independent learners)",
        full,
        "10,000 transitions/agent, 2,000 episodes (simulating " +
            std::to_string(sim_episodes) +
            " and extrapolating), INT32, one agent per PIM core");

    struct Anchor
    {
        std::size_t agents;
        double paperCpu;
        double paperSpeedup;
    };
    const std::vector<Anchor> anchors = {
        {1000, 996.52, 11.23},
        {2000, 1943.78, 21.92},
    };

    TextTable t("Multi-agent training time");
    t.setHeader({"agents", "CPU (model) s", "CPU (paper) s",
                 "PIM (sim) s", "speedup", "paper speedup"});
    bool all_speedups_positive = true;
    for (const auto &a : anchors) {
        const double cpu = cpuMultiAgentSeconds(a.agents);
        const double pim =
            pimMultiAgentSeconds(a.agents, sim_episodes);
        const double speedup = cpu / pim;
        all_speedups_positive &= speedup > 8.0;
        t.addRow({TextTable::num(static_cast<long long>(a.agents)),
                  TextTable::num(cpu, 1),
                  TextTable::num(a.paperCpu, 1),
                  TextTable::num(pim, 1),
                  TextTable::speedup(speedup, 2),
                  TextTable::speedup(a.paperSpeedup, 2)});
    }
    t.print(std::cout);

    std::cout << "\npaper claim check (PIM provides order-of-"
                 "magnitude speedup via agent-level parallelism): "
              << (all_speedups_positive ? "REPRODUCED"
                                        : "NOT reproduced")
              << "\n";
    return all_speedups_positive ? 0 : 1;
}
