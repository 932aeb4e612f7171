/**
 * @file
 * Tests for the CPU-V1 (shared table) and CPU-V2 (local tables)
 * baselines.
 */

#include <gtest/gtest.h>

#include "baselines/cpu_baselines.hh"
#include "rlcore/dataset.hh"
#include "rlcore/evaluate.hh"
#include "rlenv/frozen_lake.hh"
#include "swiftrl/swiftrl.hh"

namespace {

using swiftrl::baselines::trainCpuV1;
using swiftrl::baselines::trainCpuV2;
using swiftrl::rlcore::Algorithm;
using swiftrl::rlcore::collectRandomDataset;
using swiftrl::rlcore::evaluateGreedy;
using swiftrl::rlcore::Hyper;
using swiftrl::rlcore::NumericFormat;
using swiftrl::rlcore::QTable;
using swiftrl::rlcore::Sampling;
using swiftrl::rlcore::trainCpuReference;
using swiftrl::rlenv::FrozenLake;

Hyper
smallHyper(int episodes)
{
    Hyper h;
    h.episodes = episodes;
    h.seed = 42;
    return h;
}

TEST(CpuV1, SingleThreadMatchesReference)
{
    FrozenLake env(false);
    const auto data = collectRandomDataset(env, 1000, 1);
    const auto h = smallHyper(10);
    const auto v1 = trainCpuV1(Algorithm::QLearning, data, 16, 4, h,
                               Sampling::Seq, NumericFormat::Fp32, 1);
    const auto ref = trainCpuReference(Algorithm::QLearning, data, 16,
                                       4, h, Sampling::Seq,
                                       NumericFormat::Fp32, 0);
    EXPECT_EQ(QTable::maxAbsDifference(v1.finalQ, ref), 0.0f);
}

TEST(CpuV1, MultiThreadLearnsLake)
{
    FrozenLake env(false);
    const auto data = collectRandomDataset(env, 16000, 2);
    const auto v1 =
        trainCpuV1(Algorithm::QLearning, data, 16, 4, smallHyper(40),
                   Sampling::Seq, NumericFormat::Fp32, 4);
    EXPECT_EQ(v1.threads, 4);
    FrozenLake eval_env(false);
    const auto eval = evaluateGreedy(eval_env, v1.finalQ, 50, 7);
    EXPECT_DOUBLE_EQ(eval.meanReward, 1.0);
}

TEST(CpuV1, SarsaPropagatesGoalValue)
{
    // Hogwild-style shared-table SARSA is racy by design, so exact
    // policy outcomes are not deterministic; assert the robust
    // properties instead: the goal-adjacent action is learned and all
    // values respect the discount bound.
    FrozenLake env(false);
    const auto data = collectRandomDataset(env, 16000, 2);
    const auto v1 =
        trainCpuV1(Algorithm::Sarsa, data, 16, 4, smallHyper(40),
                   Sampling::Seq, NumericFormat::Fp32, 2);
    EXPECT_GT(v1.finalQ.at(14, FrozenLake::Right), 0.9f);
    EXPECT_EQ(v1.finalQ.greedyAction(14), FrozenLake::Right);
    EXPECT_LE(v1.finalQ.maxAbsValue(), 20.0f + 1e-3f);
}

TEST(CpuV2, SingleThreadMatchesReference)
{
    FrozenLake env(false);
    const auto data = collectRandomDataset(env, 1000, 3);
    const auto h = smallHyper(10);
    const auto v2 = trainCpuV2(Algorithm::QLearning, data, 16, 4, h,
                               Sampling::Seq, NumericFormat::Fp32, 1);
    const auto ref = trainCpuReference(Algorithm::QLearning, data, 16,
                                       4, h, Sampling::Seq,
                                       NumericFormat::Fp32, 0);
    EXPECT_EQ(QTable::maxAbsDifference(v2.finalQ, ref), 0.0f);
}

TEST(CpuV2, IsDeterministicAcrossRuns)
{
    FrozenLake env(false);
    const auto data = collectRandomDataset(env, 4000, 4);
    const auto h = smallHyper(10);
    const auto a = trainCpuV2(Algorithm::QLearning, data, 16, 4, h,
                              Sampling::Ran, NumericFormat::Fp32, 4);
    const auto b = trainCpuV2(Algorithm::QLearning, data, 16, 4, h,
                              Sampling::Ran, NumericFormat::Fp32, 4);
    EXPECT_EQ(QTable::maxAbsDifference(a.finalQ, b.finalQ), 0.0f);
}

TEST(CpuV2, MatchesDistributedPimAggregation)
{
    // CPU-V2 with T threads is the same algorithm as a T-core PIM
    // run with a single final aggregation (tau >= episodes).
    FrozenLake env(false);
    const auto data = collectRandomDataset(env, 1200, 5);
    const auto h = smallHyper(8);
    const auto v2 = trainCpuV2(Algorithm::QLearning, data, 16, 4, h,
                               Sampling::Seq, NumericFormat::Fp32, 3);

    swiftrl::pimsim::PimConfig pim_cfg;
    pim_cfg.numDpus = 3;
    pim_cfg.mramBytesPerDpu = 8u << 20;
    swiftrl::pimsim::PimSystem system(pim_cfg);
    swiftrl::SessionConfig cfg;
    cfg.workload = swiftrl::Workload{Algorithm::QLearning,
                                     Sampling::Seq,
                                     NumericFormat::Fp32};
    cfg.hyper = h;
    cfg.tau = h.episodes; // one sync at the very end only
    const auto pim =
        swiftrl::PimTrainer(system, cfg).train(data, 16, 4);

    EXPECT_EQ(QTable::maxAbsDifference(v2.finalQ, pim.finalQ), 0.0f);
}

TEST(CpuV2, LearnsLakeWithManyThreads)
{
    FrozenLake env(false);
    const auto data = collectRandomDataset(env, 16000, 6);
    const auto v2 =
        trainCpuV2(Algorithm::QLearning, data, 16, 4, smallHyper(40),
                   Sampling::Seq, NumericFormat::Int32, 4);
    FrozenLake eval_env(false);
    const auto eval = evaluateGreedy(eval_env, v2.finalQ, 50, 7);
    EXPECT_DOUBLE_EQ(eval.meanReward, 1.0);
}

TEST(CpuBaselines, WallClockIsMeasured)
{
    FrozenLake env(false);
    const auto data = collectRandomDataset(env, 1000, 7);
    const auto v1 =
        trainCpuV1(Algorithm::QLearning, data, 16, 4, smallHyper(5),
                   Sampling::Seq, NumericFormat::Fp32, 2);
    EXPECT_GT(v1.wallSeconds, 0.0);
}

} // namespace
