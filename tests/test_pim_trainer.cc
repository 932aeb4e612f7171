/**
 * @file
 * Integration tests for the PIM training orchestrator — the heart of
 * the reproduction:
 *
 *  - a single-core PIM run is *bit-identical* to the CPU reference
 *    trainer for every one of the 12 workload variants (the kernels
 *    and the reference instantiate the same update-rule templates and
 *    the same LCG streams);
 *  - multi-core runs are deterministic, execute episodes/tau
 *    communication rounds, and still learn working policies;
 *  - the modelled time breakdown behaves per the paper (kernel time
 *    shrinks with core count, INT32 beats FP32, components positive).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "rlcore/evaluate.hh"
#include "rlenv/cliff_walking.hh"
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

Hyper
smallHyper(int episodes, int tau_compatible_seed = 42)
{
    Hyper h;
    h.episodes = episodes;
    h.seed = static_cast<std::uint64_t>(tau_compatible_seed);
    return h;
}

Dataset
lakeData(std::size_t n, std::uint64_t seed)
{
    swiftrl::rlenv::FrozenLake env(true);
    return collectRandomDataset(env, n, seed);
}

/** Single-core PIM must equal the CPU reference exactly. */
class SingleCoreEquivalence
    : public ::testing::TestWithParam<
          std::tuple<Algorithm, Sampling, NumericFormat>>
{
};

TEST_P(SingleCoreEquivalence, BitIdenticalToReference)
{
    const auto [algo, sampling, format] = GetParam();
    const auto data = lakeData(400, 1);

    SessionConfig cfg;
    cfg.workload = Workload{algo, sampling, format};
    cfg.hyper = smallHyper(20);
    cfg.tau = 5;

    auto system = makeSystem(1);
    PimTrainer trainer(system, cfg);
    const auto result = trainer.train(data, 16, 4);

    const auto reference = trainCpuReference(
        algo, data, 16, 4, cfg.hyper, sampling, format,
        /*lcg_stream=*/0);

    EXPECT_EQ(QTable::maxAbsDifference(result.finalQ, reference),
              0.0f)
        << "PIM kernel diverged from the reference implementation";
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloadVariants, SingleCoreEquivalence,
    ::testing::Combine(
        ::testing::Values(Algorithm::QLearning, Algorithm::Sarsa),
        ::testing::Values(Sampling::Seq, Sampling::Ran, Sampling::Str),
        ::testing::Values(NumericFormat::Fp32, NumericFormat::Int32,
                          NumericFormat::Int8)));

TEST(PimTrainer, MultiCoreRunsAreDeterministic)
{
    const auto data = lakeData(1000, 2);
    SessionConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Ran,
                            NumericFormat::Fp32};
    cfg.hyper = smallHyper(10);
    cfg.tau = 5;

    auto sys_a = makeSystem(8);
    auto sys_b = makeSystem(8);
    const auto a = PimTrainer(sys_a, cfg).train(data, 16, 4);
    const auto b = PimTrainer(sys_b, cfg).train(data, 16, 4);
    EXPECT_EQ(QTable::maxAbsDifference(a.finalQ, b.finalQ), 0.0f);
    EXPECT_DOUBLE_EQ(a.time.total(), b.time.total());
}

TEST(PimTrainer, CommRoundsFollowTau)
{
    const auto data = lakeData(500, 3);
    SessionConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Fp32};
    cfg.hyper = smallHyper(100);
    cfg.tau = 25;

    auto system = makeSystem(4);
    const auto result = PimTrainer(system, cfg).train(data, 16, 4);
    EXPECT_EQ(result.commRounds, 4); // 100 / 25
    EXPECT_GT(result.time.interCore, 0.0);
}

TEST(PimTrainer, PartialFinalRoundHandled)
{
    const auto data = lakeData(500, 3);
    SessionConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Fp32};
    cfg.hyper = smallHyper(55); // 50 + 5 leftover episodes
    cfg.tau = 25;

    auto system = makeSystem(2);
    const auto result = PimTrainer(system, cfg).train(data, 16, 4);
    EXPECT_EQ(result.commRounds, 3); // 25 + 25 + 5
}

TEST(PimTrainer, AllBreakdownComponentsPositive)
{
    const auto data = lakeData(600, 4);
    SessionConfig cfg;
    cfg.workload = Workload{Algorithm::Sarsa, Sampling::Str,
                            NumericFormat::Int32};
    cfg.hyper = smallHyper(10);
    cfg.tau = 5;

    auto system = makeSystem(6);
    const auto result = PimTrainer(system, cfg).train(data, 16, 4);
    EXPECT_GT(result.time.kernel, 0.0);
    EXPECT_GT(result.time.cpuToPim, 0.0);
    EXPECT_GT(result.time.pimToCpu, 0.0);
    EXPECT_GT(result.time.interCore, 0.0);
    EXPECT_NEAR(result.time.total(),
                result.time.kernel + result.time.cpuToPim +
                    result.time.pimToCpu + result.time.interCore,
                1e-12);
}

TEST(PimTrainer, KernelTimeShrinksWithMoreCores)
{
    const auto data = lakeData(2048, 5);
    SessionConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Fp32};
    cfg.hyper = smallHyper(4);
    cfg.tau = 4;

    auto sys_small = makeSystem(2);
    auto sys_large = makeSystem(16);
    const auto small = PimTrainer(sys_small, cfg).train(data, 16, 4);
    const auto large = PimTrainer(sys_large, cfg).train(data, 16, 4);
    // 8x the cores -> kernel time close to 1/8 (equal chunks).
    const double speedup = small.time.kernel / large.time.kernel;
    EXPECT_GT(speedup, 6.0);
    EXPECT_LE(speedup, 8.5);
}

TEST(PimTrainer, Int32KernelBeatsFp32Kernel)
{
    const auto data = lakeData(512, 6);
    SessionConfig fp_cfg, int_cfg;
    fp_cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                               NumericFormat::Fp32};
    int_cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                                NumericFormat::Int32};
    fp_cfg.hyper = int_cfg.hyper = smallHyper(5);
    fp_cfg.tau = int_cfg.tau = 5;

    auto sys_fp = makeSystem(4);
    auto sys_int = makeSystem(4);
    const auto fp = PimTrainer(sys_fp, fp_cfg).train(data, 16, 4);
    const auto fx = PimTrainer(sys_int, int_cfg).train(data, 16, 4);
    // The scaling optimisation's whole point: several-fold faster.
    EXPECT_GT(fp.time.kernel / fx.time.kernel, 4.0);
}

TEST(PimTrainer, MultiCoreTrainingLearnsLake)
{
    swiftrl::rlenv::FrozenLake env(true);
    const auto data = collectRandomDataset(env, 8000, 7);

    SessionConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Int32};
    cfg.hyper = smallHyper(60);
    cfg.tau = 15;

    auto system = makeSystem(8);
    const auto result = PimTrainer(system, cfg).train(data, 16, 4);

    swiftrl::rlenv::FrozenLake eval_env(true);
    const auto eval = evaluateGreedy(eval_env, result.finalQ, 500, 9);
    EXPECT_GT(eval.meanReward, 0.4);
}

TEST(PimTrainer, GatheredTablesBoundedLikeReference)
{
    const auto data = lakeData(400, 8);
    SessionConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Fp32};
    cfg.hyper = smallHyper(30);
    cfg.tau = 10;
    auto system = makeSystem(4);
    const auto result = PimTrainer(system, cfg).train(data, 16, 4);
    EXPECT_LE(result.finalQ.maxAbsValue(), 20.0f + 1e-3f);
}

TEST(PimTrainer, FederatedAveragingNeedsPerChunkCoverage)
{
    // Characterisation: with negative-reward environments, averaging
    // local Q-tables only works when every chunk covers the state
    // space — unvisited (s, a) pairs keep Q = 0, which beats any
    // negative learned value after averaging and derails the greedy
    // policy. CliffWalking makes this visible: 10 cores (10k
    // transitions/chunk) reach the optimum, 100 cores (1k/chunk) do
    // not. The paper's environments avoid this (frozen lake rewards
    // are non-negative; its taxi chunks are large).
    swiftrl::rlenv::CliffWalking env;
    const auto data = collectRandomDataset(env, 100'000, 1);

    SessionConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Int32};
    cfg.hyper = smallHyper(40);
    cfg.tau = 10;

    auto covered_sys = makeSystem(10);
    const auto covered =
        PimTrainer(covered_sys, cfg).train(data, 48, 4);
    swiftrl::rlenv::CliffWalking eval_a;
    const auto good =
        evaluateGreedy(eval_a, covered.finalQ, 20, 7);
    EXPECT_DOUBLE_EQ(good.meanReward, -13.0);

    auto starved_sys = makeSystem(100);
    const auto starved =
        PimTrainer(starved_sys, cfg).train(data, 48, 4);
    swiftrl::rlenv::CliffWalking eval_b;
    const auto bad = evaluateGreedy(eval_b, starved.finalQ, 20, 7);
    EXPECT_LT(bad.meanReward, good.meanReward);
}

TEST(PimTrainer, MoreCoresThanTransitionsTrains)
{
    // Cores past the end of the dataset receive empty chunks and
    // contribute nothing; the run is legal, not fatal (the C ABI
    // relies on this — it only requires transitions >= 1).
    const auto data = lakeData(4, 9);
    SessionConfig cfg;
    cfg.hyper = smallHyper(1);
    auto system = makeSystem(8);
    PimTrainer trainer(system, cfg);
    const auto result = trainer.train(data, 16, 4);
    EXPECT_EQ(result.coresUsed, 8u);
    for (std::int32_t s = 0; s < 16; ++s)
        for (std::int32_t a = 0; a < 4; ++a)
            EXPECT_TRUE(std::isfinite(result.finalQ.at(s, a)));
}

TEST(PimTrainerDeath, InvalidTauIsFatal)
{
    SessionConfig cfg;
    cfg.tau = 0;
    auto system = makeSystem(1);
    EXPECT_EXIT(PimTrainer(system, cfg), ::testing::ExitedWithCode(1),
                "tau");
}

} // namespace
