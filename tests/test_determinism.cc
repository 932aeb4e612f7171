/**
 * @file
 * The command-stream engine's determinism guarantee: the host thread
 * pool that executes the *functional* per-core kernel work is purely a
 * simulation-speed knob. For every pool size — including the fully
 * serial size 1 — a training run must produce bit-identical Q-tables,
 * identical integer cycle clocks, and an exactly equal modelled time
 * breakdown. Anything less means a work item leaked state across
 * cores or a reduction picked up a thread-dependent order.
 */

#include <gtest/gtest.h>

#include "swiftrl/swiftrl.hh"

namespace {

using swiftrl::SessionConfig;
using swiftrl::PimTrainer;
using swiftrl::PimTrainResult;
using swiftrl::Workload;
using swiftrl::pimsim::Cycles;
using swiftrl::pimsim::PimConfig;
using swiftrl::pimsim::PimSystem;
using swiftrl::rlcore::Algorithm;
using swiftrl::rlcore::collectRandomDataset;
using swiftrl::rlcore::Dataset;
using swiftrl::rlcore::NumericFormat;
using swiftrl::rlcore::QTable;
using swiftrl::rlcore::Sampling;

/** One full run plus the device clocks it left behind. */
struct RunOutcome
{
    PimTrainResult result;
    Cycles maxCycles = 0;
    Cycles totalCycles = 0;
};

constexpr std::size_t kCores = 16;

Dataset
lakeData()
{
    swiftrl::rlenv::FrozenLake env(true);
    return collectRandomDataset(env, 2000, 11);
}

SessionConfig
lakeConfig(NumericFormat format)
{
    SessionConfig cfg;
    cfg.workload =
        Workload{Algorithm::QLearning, Sampling::Seq, format};
    cfg.hyper.episodes = 20;
    cfg.hyper.seed = 42;
    cfg.tau = 5;
    cfg.tasklets = 4;
    return cfg;
}

RunOutcome
runWithPool(unsigned host_threads, const Dataset &data,
            const SessionConfig &cfg)
{
    PimConfig pim;
    pim.numDpus = kCores;
    pim.mramBytesPerDpu = 8u << 20;
    pim.hostThreads = host_threads;
    PimSystem system(pim);

    RunOutcome out;
    out.result = PimTrainer(system, cfg).train(data, 16, 4);
    out.maxCycles = system.maxCycles();
    out.totalCycles = system.totalCycles();
    return out;
}

/**
 * Every observable of @p b must match the pool-size-1 reference @p a
 * exactly — floats and doubles compared for equality on purpose.
 */
void
expectIdentical(const RunOutcome &a, const RunOutcome &b,
                const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(QTable::maxAbsDifference(a.result.finalQ,
                                       b.result.finalQ),
              0.0f);
    EXPECT_EQ(a.maxCycles, b.maxCycles);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.result.time.kernel, b.result.time.kernel);
    EXPECT_EQ(a.result.time.cpuToPim, b.result.time.cpuToPim);
    EXPECT_EQ(a.result.time.pimToCpu, b.result.time.pimToCpu);
    EXPECT_EQ(a.result.time.interCore, b.result.time.interCore);
    EXPECT_EQ(a.result.roundDeltas, b.result.roundDeltas);

    // The timelines must agree event by event, not just in aggregate.
    const auto &ta = a.result.timeline.events();
    const auto &tb = b.result.timeline.events();
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t i = 0; i < ta.size(); ++i) {
        EXPECT_EQ(ta[i].start, tb[i].start) << "event " << i;
        EXPECT_EQ(ta[i].end, tb[i].end) << "event " << i;
        EXPECT_EQ(ta[i].label, tb[i].label) << "event " << i;
    }
}

class PoolDeterminism
    : public ::testing::TestWithParam<NumericFormat>
{
};

TEST_P(PoolDeterminism, AnyPoolSizeMatchesSerialRun)
{
    const auto data = lakeData();
    const auto cfg = lakeConfig(GetParam());

    const auto serial = runWithPool(1, data, cfg);
    expectIdentical(serial, runWithPool(2, data, cfg), "pool=2");
    expectIdentical(serial, runWithPool(8, data, cfg), "pool=8");
}

INSTANTIATE_TEST_SUITE_P(
    Formats, PoolDeterminism,
    ::testing::Values(NumericFormat::Fp32, NumericFormat::Int32));

TEST(PoolDeterminism, MultiAgentMatchesSerialRun)
{
    swiftrl::rlenv::FrozenLake env(true);
    std::vector<Dataset> agent_data;
    for (std::size_t i = 0; i < kCores; ++i) {
        agent_data.push_back(
            collectRandomDataset(env, 300, 100 + i));
    }
    auto cfg = lakeConfig(NumericFormat::Int32);

    PimConfig pim;
    pim.numDpus = kCores;
    pim.mramBytesPerDpu = 8u << 20;

    pim.hostThreads = 1;
    PimSystem serial_sys(pim);
    const auto serial = PimTrainer(serial_sys, cfg)
                            .trainMultiAgent(agent_data, 16, 4);

    pim.hostThreads = 8;
    PimSystem pooled_sys(pim);
    const auto pooled = PimTrainer(pooled_sys, cfg)
                            .trainMultiAgent(agent_data, 16, 4);

    ASSERT_EQ(serial.perCore.size(), pooled.perCore.size());
    for (std::size_t i = 0; i < serial.perCore.size(); ++i) {
        EXPECT_EQ(QTable::maxAbsDifference(serial.perCore[i],
                                           pooled.perCore[i]),
                  0.0f)
            << "agent " << i;
    }
    EXPECT_EQ(serial_sys.maxCycles(), pooled_sys.maxCycles());
    EXPECT_EQ(serial_sys.totalCycles(), pooled_sys.totalCycles());
    EXPECT_EQ(serial.time.kernel, pooled.time.kernel);
    EXPECT_EQ(serial.time.pimToCpu, pooled.time.pimToCpu);
}

TEST(PoolDeterminism, PoolSizeResolvesAndCaps)
{
    PimConfig pim;
    pim.numDpus = 4;
    pim.mramBytesPerDpu = 1u << 20;

    pim.hostThreads = 8; // more workers than cores would only idle
    PimSystem capped(pim);
    EXPECT_EQ(capped.hostThreadCount(), 4u);

    pim.hostThreads = 3;
    PimSystem exact(pim);
    EXPECT_EQ(exact.hostThreadCount(), 3u);

    pim.hostThreads = 0; // auto: at least one worker, still capped
    PimSystem autod(pim);
    EXPECT_GE(autod.hostThreadCount(), 1u);
    EXPECT_LE(autod.hostThreadCount(), 4u);
}

} // namespace
