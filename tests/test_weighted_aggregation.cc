/**
 * @file
 * Tests for visit-count-weighted aggregation (extension E5).
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
using namespace swiftrl::rlcore;

PimSystem
makeSystem(std::size_t dpus)
{
    PimConfig cfg;
    cfg.numDpus = dpus;
    cfg.mramBytesPerDpu = 8u << 20;
    return PimSystem(cfg);
}

SessionConfig
config(bool weighted, int episodes, int tau)
{
    SessionConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Int32};
    cfg.hyper.episodes = episodes;
    cfg.tau = tau;
    cfg.weightedAggregation = weighted;
    return cfg;
}

TEST(WeightedAggregation, MatchesPlainWhenChunksCoverTheSpace)
{
    // Frozen lake with few cores: every chunk covers the space, so
    // the per-entry weights are all positive and similar; both
    // aggregators must land on (nearly) the same policy quality.
    swiftrl::rlenv::FrozenLake env(true);
    const auto data = collectRandomDataset(env, 100'000, 1);

    double mean[2];
    int slot = 0;
    for (const bool weighted : {false, true}) {
        auto system = makeSystem(8);
        const auto r = PimTrainer(system, config(weighted, 40, 10))
                           .train(data, 16, 4);
        swiftrl::rlenv::FrozenLake eval_env(true);
        mean[slot++] =
            evaluateGreedy(eval_env, r.finalQ, 1000, 7).meanReward;
    }
    EXPECT_NEAR(mean[0], mean[1], 0.06);
}

TEST(WeightedAggregation, RescuesUnderCoveredNegativeRewardCase)
{
    // The headline property: 100 under-covered CliffWalking chunks
    // fail under plain averaging at 40 episodes but converge to the
    // optimum with visit weighting.
    swiftrl::rlenv::CliffWalking env;
    const auto data = collectRandomDataset(env, 100'000, 1);

    auto plain_sys = makeSystem(100);
    const auto plain = PimTrainer(plain_sys, config(false, 40, 10))
                           .train(data, 48, 4);
    auto weighted_sys = makeSystem(100);
    const auto weighted =
        PimTrainer(weighted_sys, config(true, 40, 10))
            .train(data, 48, 4);

    swiftrl::rlenv::CliffWalking eval_a, eval_b;
    const auto plain_eval =
        evaluateGreedy(eval_a, plain.finalQ, 20, 7);
    const auto weighted_eval =
        evaluateGreedy(eval_b, weighted.finalQ, 20, 7);
    EXPECT_DOUBLE_EQ(weighted_eval.meanReward, -13.0);
    EXPECT_LT(plain_eval.meanReward, weighted_eval.meanReward);
}

TEST(WeightedAggregation, CostsOneExtraGatherPerRound)
{
    swiftrl::rlenv::FrozenLake env(true);
    const auto data = collectRandomDataset(env, 10'000, 2);

    auto plain_sys = makeSystem(8);
    const auto plain = PimTrainer(plain_sys, config(false, 20, 5))
                           .train(data, 16, 4);
    auto weighted_sys = makeSystem(8);
    const auto weighted =
        PimTrainer(weighted_sys, config(true, 20, 5))
            .train(data, 16, 4);

    EXPECT_GT(weighted.time.interCore, plain.time.interCore);
    // Bounded: the count table is the same size as the Q-table, and
    // the gather direction dominates, so at most ~2x.
    EXPECT_LT(weighted.time.interCore, plain.time.interCore * 2.0);
    // Kernel pays the small per-update counter increment.
    EXPECT_GT(weighted.time.kernel, plain.time.kernel);
    EXPECT_LT(weighted.time.kernel, plain.time.kernel * 1.2);
}

TEST(WeightedAggregation, DeterministicAcrossRuns)
{
    swiftrl::rlenv::FrozenLake env(true);
    const auto data = collectRandomDataset(env, 5'000, 3);
    auto sys_a = makeSystem(4);
    auto sys_b = makeSystem(4);
    const auto a = PimTrainer(sys_a, config(true, 10, 5))
                       .train(data, 16, 4);
    const auto b = PimTrainer(sys_b, config(true, 10, 5))
                       .train(data, 16, 4);
    EXPECT_EQ(QTable::maxAbsDifference(a.finalQ, b.finalQ), 0.0f);
}

TEST(WeightedAggregation, WorksWithMultiTasklet)
{
    swiftrl::rlenv::FrozenLake env(true);
    const auto data = collectRandomDataset(env, 8'000, 4);
    auto system = makeSystem(4);
    auto cfg = config(true, 20, 10);
    cfg.tasklets = 4;
    const auto r = PimTrainer(system, cfg).train(data, 16, 4);
    swiftrl::rlenv::FrozenLake eval_env(true);
    const auto eval = evaluateGreedy(eval_env, r.finalQ, 300, 7);
    EXPECT_GT(eval.meanReward, 0.2);
}

TEST(WeightedAggregation, EmptyChunksAddNoWeight)
{
    // Fewer transitions than cores: cores 12..15 get empty chunks,
    // never train and never write their visit counts. Their zero
    // weight must leave the mean exactly that of the 12 cores that
    // do train (the same chunks and LCG streams), through a
    // pause/resume on a fresh system as well.
    swiftrl::rlenv::FrozenLake env(true);
    const auto data = collectRandomDataset(env, 12, 5);
    auto cfg = config(true, 12, 4);
    cfg.workload.format = NumericFormat::Fp32;

    auto few_sys = makeSystem(12);
    const auto few = PimTrainer(few_sys, cfg).train(data, 16, 4);
    auto many_sys = makeSystem(16);
    const auto many = PimTrainer(many_sys, cfg).train(data, 16, 4);
    for (const float v : many.finalQ.values())
        ASSERT_TRUE(std::isfinite(v));
    EXPECT_EQ(QTable::maxAbsDifference(few.finalQ, many.finalQ), 0.0f);

    swiftrl::SessionCheckpoint ck;
    {
        auto sys = makeSystem(16);
        ck = PimTrainer(sys, cfg).trainUntilRound(data, 16, 4, 1);
    }
    auto resumed_sys = makeSystem(16);
    const auto resumed =
        PimTrainer(resumed_sys, cfg).resume(data, 16, 4, ck);
    EXPECT_EQ(QTable::maxAbsDifference(many.finalQ, resumed.finalQ),
              0.0f);
}

} // namespace
