/**
 * @file
 * Tests for multi-tasklet training (the paper's future-work
 * extension): thread-level parallelism within each PIM core.
 */

#include <gtest/gtest.h>

#include "rlcore/evaluate.hh"
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
using swiftrl::rlcore::NumericFormat;
using swiftrl::rlcore::QTable;
using swiftrl::rlcore::Sampling;

PimSystem
makeSystem(std::size_t dpus)
{
    PimConfig cfg;
    cfg.numDpus = dpus;
    cfg.mramBytesPerDpu = 8u << 20;
    return PimSystem(cfg);
}

Dataset
lakeData(std::size_t n, std::uint64_t seed)
{
    swiftrl::rlenv::FrozenLake env(true);
    return collectRandomDataset(env, n, seed);
}

SessionConfig
config(unsigned tasklets, int episodes = 10,
       Sampling sampling = Sampling::Seq)
{
    SessionConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, sampling,
                            NumericFormat::Int32};
    cfg.hyper.episodes = episodes;
    cfg.tau = episodes;
    cfg.tasklets = tasklets;
    return cfg;
}

TEST(Tasklets, DefaultSingleTaskletUnchanged)
{
    const auto data = lakeData(600, 1);
    auto sys_a = makeSystem(4);
    auto sys_b = makeSystem(4);
    auto cfg = config(1);
    const auto a = PimTrainer(sys_a, cfg).train(data, 16, 4);
    const auto b = PimTrainer(sys_b, cfg).train(data, 16, 4);
    EXPECT_EQ(QTable::maxAbsDifference(a.finalQ, b.finalQ), 0.0f);
}

TEST(Tasklets, MultiTaskletIsDeterministic)
{
    const auto data = lakeData(1000, 2);
    auto sys_a = makeSystem(4);
    auto sys_b = makeSystem(4);
    const auto cfg = config(4, 10, Sampling::Ran);
    const auto a = PimTrainer(sys_a, cfg).train(data, 16, 4);
    const auto b = PimTrainer(sys_b, cfg).train(data, 16, 4);
    EXPECT_EQ(QTable::maxAbsDifference(a.finalQ, b.finalQ), 0.0f);
    EXPECT_DOUBLE_EQ(a.time.kernel, b.time.kernel);
}

/** Property sweep: kernel speedup tracks min(t, pipeline interval). */
class TaskletSpeedup : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(TaskletSpeedup, FollowsPipelineModel)
{
    const unsigned t = GetParam();
    const auto data = lakeData(4096, 3);
    auto sys_base = makeSystem(2);
    auto sys_multi = makeSystem(2);
    const auto base =
        PimTrainer(sys_base, config(1)).train(data, 16, 4);
    const auto multi =
        PimTrainer(sys_multi, config(t)).train(data, 16, 4);

    const auto interval =
        swiftrl::pimsim::DpuCostModel{}.pipelineInterval;
    const double expected =
        static_cast<double>(std::min<swiftrl::pimsim::Cycles>(
            t, interval));
    const double speedup = base.time.kernel / multi.time.kernel;
    // Sub-chunk imbalance and per-tasklet LCG restore overhead keep
    // the measured speedup a little under the model.
    EXPECT_GT(speedup, expected * 0.80);
    EXPECT_LE(speedup, expected * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TaskletSpeedup,
                         ::testing::Values(2u, 4u, 8u, 11u, 16u));

TEST(Tasklets, SixteenTaskletsCapAtPipelineDepth)
{
    const auto data = lakeData(4096, 3);
    auto sys_11 = makeSystem(2);
    auto sys_16 = makeSystem(2);
    const auto t11 =
        PimTrainer(sys_11, config(11)).train(data, 16, 4);
    const auto t16 =
        PimTrainer(sys_16, config(16)).train(data, 16, 4);
    // Beyond the pipeline depth, extra tasklets buy (almost) nothing.
    EXPECT_NEAR(t16.time.kernel / t11.time.kernel, 1.0, 0.15);
}

TEST(Tasklets, MultiTaskletStillLearns)
{
    const auto data = lakeData(20000, 4);
    auto system = makeSystem(4);
    auto cfg = config(8, 60);
    cfg.tau = 20;
    const auto result = PimTrainer(system, cfg).train(data, 16, 4);
    swiftrl::rlenv::FrozenLake env(true);
    const auto eval = evaluateGreedy(env, result.finalQ, 500, 7);
    EXPECT_GT(eval.meanReward, 0.3);
}

TEST(Tasklets, EveryWorkloadVariantRunsMultiTasklet)
{
    const auto data = lakeData(2000, 5);
    for (const auto &workload : swiftrl::allWorkloads()) {
        auto system = makeSystem(2);
        SessionConfig cfg;
        cfg.workload = workload;
        cfg.hyper.episodes = 2;
        cfg.tau = 2;
        cfg.tasklets = 4;
        const auto result =
            PimTrainer(system, cfg).train(data, 16, 4);
        EXPECT_GT(result.time.kernel, 0.0) << workload.name();
        EXPECT_LE(result.finalQ.maxAbsValue(), 20.0f + 1e-3f)
            << workload.name();
    }
}

TEST(Tasklets, MoreTaskletsThanChunkLeavesSomeIdle)
{
    // 8 transitions on 1 core with 16 tasklets: half the tasklets
    // are idle; training must still proceed and stay in bounds.
    const auto data = lakeData(8, 6);
    auto system = makeSystem(1);
    const auto result =
        PimTrainer(system, config(16, 4)).train(data, 16, 4);
    EXPECT_GT(result.time.kernel, 0.0);
}

TEST(TaskletsDeath, ZeroTaskletsIsFatal)
{
    auto system = makeSystem(1);
    auto cfg = config(1);
    cfg.tasklets = 0;
    EXPECT_EXIT(PimTrainer(system, cfg), ::testing::ExitedWithCode(1),
                "tasklets");
}

TEST(TaskletsDeath, TooManyTaskletsIsFatal)
{
    auto system = makeSystem(1);
    auto cfg = config(1);
    cfg.tasklets = 25;
    EXPECT_EXIT(PimTrainer(system, cfg), ::testing::ExitedWithCode(1),
                "1-24 tasklets");
}

} // namespace
