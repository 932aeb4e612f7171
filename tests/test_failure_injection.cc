/**
 * @file
 * Failure-injection tests: configurations that must fail loudly —
 * over-committed MRAM banks, over-committed WRAM scratchpads,
 * mis-sized systems — rather than silently mis-train.
 */

#include <gtest/gtest.h>

#include "rlenv/taxi.hh"
#include "swiftrl/swiftrl.hh"

namespace {

using swiftrl::SessionConfig;
using swiftrl::PimTrainer;
using swiftrl::Workload;
using swiftrl::pimsim::PimConfig;
using swiftrl::pimsim::PimSystem;
using namespace swiftrl::rlcore;

TEST(FailureInjection, DatasetLargerThanMramIsFatal)
{
    // 1 core with a 4-KB bank cannot hold a 1000-record (16-KB)
    // chunk: the simulated equivalent of over-committing a DPU bank.
    swiftrl::rlenv::FrozenLake env(true);
    const auto data = collectRandomDataset(env, 1000, 1);

    PimConfig pim;
    pim.numDpus = 1;
    pim.mramBytesPerDpu = 4 * 1024;
    PimSystem system(pim);
    SessionConfig cfg;
    cfg.hyper.episodes = 1;
    PimTrainer trainer(system, cfg);
    EXPECT_EXIT((void)trainer.train(data, 16, 4),
                ::testing::ExitedWithCode(1), "exceeds the");
}

TEST(FailureInjection, TaxiQTablePlusManyTaskletsOverflowsWram)
{
    // Taxi's 12-KB Q-table plus 24 per-tasklet 4-KB staging buffers
    // (108 KB total) exceeds the 64-KB scratchpad: the kernel must
    // refuse, exactly as a real DPU program would fail to link.
    swiftrl::rlenv::Taxi env;
    const auto data = collectRandomDataset(env, 2000, 1);

    PimConfig pim;
    pim.numDpus = 1;
    pim.mramBytesPerDpu = 8u << 20;
    PimSystem system(pim);
    SessionConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Int32};
    cfg.hyper.episodes = 1;
    cfg.tau = 1;
    cfg.tasklets = 24;
    cfg.blockTransitions = 256; // 4-KB staging blocks
    PimTrainer trainer(system, cfg);
    EXPECT_EXIT((void)trainer.train(data, 500, 6),
                ::testing::ExitedWithCode(1), "scratchpad");
}

TEST(FailureInjection, TaxiFitsWithFewerTasklets)
{
    // The same configuration with 8 tasklets fits: 12 KB + 16 KB.
    swiftrl::rlenv::Taxi env;
    const auto data = collectRandomDataset(env, 2000, 1);

    PimConfig pim;
    pim.numDpus = 1;
    pim.mramBytesPerDpu = 8u << 20;
    PimSystem system(pim);
    SessionConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Int32};
    cfg.hyper.episodes = 1;
    cfg.tau = 1;
    cfg.tasklets = 8;
    PimTrainer trainer(system, cfg);
    const auto result = trainer.train(data, 500, 6);
    EXPECT_GT(result.time.kernel, 0.0);
}

TEST(FailureInjection, Int8RangeGuardTripsOnLargeRewards)
{
    // A synthetic environment-agnostic check: rewards large enough
    // that |Q| * 128 exceeds the 16-bit wide-operand limit must trip
    // the INT8 kernel's range guard (the paper's "limited value
    // range" caveat, enforced at runtime). Built from a hand-made
    // dataset with a self-loop paying +300 per step:
    // Q -> 300/(1-0.95) = 6000, raw 768,000 >> 32,767.
    Dataset data;
    for (int i = 0; i < 64; ++i) {
        Transition t;
        t.state = 0;
        t.action = 0;
        t.reward = 300.0f;
        t.nextState = 0;
        t.terminal = false;
        data.append(t);
    }

    PimConfig pim;
    pim.numDpus = 1;
    pim.mramBytesPerDpu = 8u << 20;
    PimSystem system(pim);
    SessionConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Int8};
    cfg.hyper.episodes = 200;
    cfg.tau = 200;
    PimTrainer trainer(system, cfg);
    EXPECT_DEATH((void)trainer.train(data, 2, 2), "INT8|8 bits");
}

TEST(FailureInjection, ZeroEpisodesIsFatal)
{
    PimConfig pim;
    pim.numDpus = 1;
    PimSystem system(pim);
    SessionConfig cfg;
    cfg.hyper.episodes = 0;
    EXPECT_EXIT(PimTrainer(system, cfg), ::testing::ExitedWithCode(1),
                "episode count");
}

TEST(FailureInjection, ZeroBlockTransitionsIsFatal)
{
    PimConfig pim;
    pim.numDpus = 1;
    PimSystem system(pim);
    SessionConfig cfg;
    cfg.blockTransitions = 0;
    EXPECT_EXIT(PimTrainer(system, cfg), ::testing::ExitedWithCode(1),
                "staging block");
}

// ------------------------------------------------------------------
// Recovery-path tests: injected faults that the trainers must absorb
// — transient launches retried, corrupted gathers re-read, dropped
// cores redistributed — with the recovery charged to its own time
// track and the final Q-table unchanged where the contract says so.

using swiftrl::PimTrainResult;
using swiftrl::StreamingConfig;
using swiftrl::StreamingTrainer;
using swiftrl::pimsim::FaultKind;
using swiftrl::pimsim::ScheduledFault;

SessionConfig
recoveryConfig()
{
    SessionConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Fp32};
    cfg.hyper.episodes = 20;
    cfg.hyper.seed = 42;
    cfg.tau = 5;
    cfg.tasklets = 2;
    return cfg;
}

PimTrainResult
runOffline(const Dataset &data, const PimConfig &pim,
           const SessionConfig &cfg)
{
    PimSystem system(pim);
    return PimTrainer(system, cfg).train(data, 16, 4);
}

Dataset
recoveryData()
{
    swiftrl::rlenv::FrozenLake env(true);
    return collectRandomDataset(env, 2000, 11);
}

TEST(FaultRecovery, TransientLaunchRetriedIsBitIdentical)
{
    const auto data = recoveryData();
    const auto cfg = recoveryConfig();
    PimConfig pim;
    pim.numDpus = 8;

    const auto clean = runOffline(data, pim, cfg);
    ASSERT_EQ(clean.faultsDetected, 0);
    ASSERT_EQ(clean.time.recovery, 0.0);

    // Site 0 is the first kernel launch; the faulted attempt commits
    // nothing, so the retried launch must reproduce the clean run's
    // Q-table bit for bit, with the failed attempt's cost on the
    // recovery track only.
    pim.faultPlan.scheduled = {
        {FaultKind::TransientKernel, /*site=*/0, /*dpu=*/0}};
    const auto faulted = runOffline(data, pim, cfg);

    EXPECT_EQ(QTable::maxAbsDifference(clean.finalQ, faulted.finalQ),
              0.0f);
    EXPECT_GE(faulted.faultsDetected, 1);
    EXPECT_EQ(faulted.coresLost, 0u);
    EXPECT_GT(faulted.time.recovery, 0.0);
}

TEST(FaultRecovery, CorruptGatherRetriedIsBitIdentical)
{
    const auto data = recoveryData();
    const auto cfg = recoveryConfig();
    PimConfig pim;
    pim.numDpus = 8;

    const auto clean = runOffline(data, pim, cfg);

    // Site 1 is the first Q-table gather. The bank contents are
    // intact — the corruption is on the wire — so the re-gather
    // returns the same bytes and the run converges identically.
    pim.faultPlan.scheduled = {
        {FaultKind::CorruptGather, /*site=*/1, /*dpu=*/5}};
    const auto faulted = runOffline(data, pim, cfg);

    EXPECT_EQ(QTable::maxAbsDifference(clean.finalQ, faulted.finalQ),
              0.0f);
    EXPECT_GE(faulted.faultsDetected, 1);
    EXPECT_GT(faulted.time.recovery, 0.0);
}

TEST(FaultRecovery, DropoutRedistributesAndStaysPoolDeterministic)
{
    const auto data = recoveryData();
    const auto cfg = recoveryConfig();

    PimConfig pim;
    pim.numDpus = 8;
    pim.faultPlan.scheduled = {
        {FaultKind::PermanentDropout, /*site=*/0, /*dpu=*/3}};

    pim.hostThreads = 1;
    const auto serial = runOffline(data, pim, cfg);
    EXPECT_EQ(serial.coresLost, 1u);
    EXPECT_GE(serial.faultsDetected, 1);
    EXPECT_GT(serial.time.recovery, 0.0);

    // The recovered run must itself honour the determinism contract:
    // identical Q for every host-pool size.
    for (const unsigned pool : {2u, 8u}) {
        SCOPED_TRACE("pool=" + std::to_string(pool));
        pim.hostThreads = pool;
        const auto other = runOffline(data, pim, cfg);
        EXPECT_EQ(QTable::maxAbsDifference(serial.finalQ,
                                           other.finalQ),
                  0.0f);
        EXPECT_EQ(other.coresLost, 1u);
        EXPECT_EQ(other.faultsDetected, serial.faultsDetected);
        EXPECT_EQ(other.time.recovery, serial.time.recovery);
    }
}

TEST(FaultRecoveryDeath, RetryLimitExhaustedIsFatal)
{
    const auto data = recoveryData();
    auto cfg = recoveryConfig();
    cfg.retry.limit = 3;

    // Each retried launch occupies a fresh fault site, so faulting
    // sites 0-3 on the same core defeats all four attempts.
    PimConfig pim;
    pim.numDpus = 8;
    for (std::size_t site = 0; site < 4; ++site)
        pim.faultPlan.scheduled.push_back(
            {FaultKind::TransientKernel, site, /*dpu=*/0});

    EXPECT_EXIT((void)runOffline(data, pim, cfg),
                ::testing::ExitedWithCode(1), "retry limit");
}

TEST(FaultRecoveryDeath, AllCoresLostIsFatal)
{
    const auto data = recoveryData();
    const auto cfg = recoveryConfig();

    PimConfig pim;
    pim.numDpus = 2;
    pim.faultPlan.scheduled = {
        {FaultKind::PermanentDropout, /*site=*/0, /*dpu=*/0},
        {FaultKind::PermanentDropout, /*site=*/0, /*dpu=*/1}};

    EXPECT_EXIT((void)runOffline(data, pim, cfg),
                ::testing::ExitedWithCode(1), "permanent dropouts");
}

TEST(FaultRecovery, StreamingFaultsDeterministicAcrossActorsAndPools)
{
    StreamingConfig cfg;
    cfg.session.workload =
        Workload{Algorithm::QLearning, Sampling::Seq, NumericFormat::Fp32};
    cfg.session.hyper.episodes = 10;
    cfg.session.hyper.seed = 42;
    cfg.session.tau = 5;
    cfg.generations = 4;
    cfg.transitionsPerGeneration = 2048;
    cfg.refreshPeriod = 2;
    cfg.collectSeed = 99;

    PimConfig pim;
    pim.numDpus = 8;
    pim.faultPlan.seed = 7;
    pim.faultPlan.transientRate = 0.02;
    pim.faultPlan.corruptRate = 0.02;
    pim.faultPlan.scheduled = {
        {FaultKind::PermanentDropout, /*site=*/2, /*dpu=*/3}};

    const auto make_env = [] {
        return swiftrl::rlenv::makeEnvironment("frozenlake");
    };

    const auto run = [&](unsigned actors, unsigned pool) {
        PimConfig machine = pim;
        machine.hostThreads = pool;
        PimSystem system(machine);
        StreamingConfig sc = cfg;
        sc.actors = actors;
        return StreamingTrainer(system, sc).train(make_env, 16, 4);
    };

    const auto base = run(1, 1);
    EXPECT_EQ(base.coresLost, 1u);
    EXPECT_GE(base.faultsDetected, 1);
    EXPECT_GT(base.time.recovery, 0.0);

    // Fault draws are pure in (seed, kind, site, core), and site
    // numbering is positional — so actor count and host-pool size
    // change neither the fault sequence nor the recovered Q-table.
    const struct
    {
        unsigned actors, pool;
    } variants[] = {{4, 1}, {1, 8}, {4, 8}};
    for (const auto &v : variants) {
        SCOPED_TRACE("actors=" + std::to_string(v.actors) +
                     " pool=" + std::to_string(v.pool));
        const auto other = run(v.actors, v.pool);
        EXPECT_EQ(QTable::maxAbsDifference(base.finalQ, other.finalQ),
                  0.0f);
        EXPECT_EQ(other.faultsDetected, base.faultsDetected);
        EXPECT_EQ(other.coresLost, base.coresLost);
        EXPECT_EQ(other.time.recovery, base.time.recovery);
    }
}

} // namespace
