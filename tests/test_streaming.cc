/**
 * @file
 * The streaming trainer's determinism and overlap contracts:
 *
 *  - the actor-thread count is purely a modelled-time knob — the
 *    final Q-table is bit-identical for 1, 2, and 8 actors;
 *  - overlap on/off changes only the timing gates — bit-identical Q,
 *    strictly smaller end-to-end time with overlap on;
 *  - the reported breakdown is a view of the timeline (hostCollect
 *    equals the host-collect bucket; endToEnd equals the timeline's
 *    makespan), and the host-collect track really overlaps the PIM
 *    tracks.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "rlcore/collection.hh"
#include "swiftrl/swiftrl.hh"

namespace {

using swiftrl::StreamingConfig;
using swiftrl::StreamingResult;
using swiftrl::StreamingTrainer;
using swiftrl::Workload;
using swiftrl::pimsim::Phase;
using swiftrl::pimsim::PimConfig;
using swiftrl::pimsim::PimSystem;
using swiftrl::pimsim::TimeBucket;
using swiftrl::rlcore::Algorithm;
using swiftrl::rlcore::NumericFormat;
using swiftrl::rlcore::QTable;
using swiftrl::rlcore::Sampling;

constexpr std::size_t kCores = 8;

std::unique_ptr<swiftrl::rlenv::Environment>
makeLake()
{
    return std::make_unique<swiftrl::rlenv::FrozenLake>(true);
}

StreamingConfig
lakeConfig(NumericFormat format)
{
    StreamingConfig cfg;
    cfg.session.workload =
        Workload{Algorithm::QLearning, Sampling::Seq, format};
    cfg.session.hyper.episodes = 10; // per generation
    cfg.session.hyper.seed = 42;
    cfg.session.tau = 5;
    cfg.generations = 6;
    cfg.transitionsPerGeneration = 1024;
    cfg.refreshPeriod = 2;
    return cfg;
}

StreamingResult
run(const StreamingConfig &cfg, unsigned host_threads = 1)
{
    PimConfig pim;
    pim.numDpus = kCores;
    pim.mramBytesPerDpu = 8u << 20;
    pim.hostThreads = host_threads;
    PimSystem system(pim);
    return StreamingTrainer(system, cfg).train(makeLake, 16, 4);
}

class StreamingDeterminism
    : public ::testing::TestWithParam<NumericFormat>
{
};

TEST_P(StreamingDeterminism, ActorCountNeverChangesTheQTable)
{
    auto cfg = lakeConfig(GetParam());
    cfg.actors = 1;
    const auto one = run(cfg);
    for (const unsigned actors : {2u, 8u}) {
        SCOPED_TRACE("actors=" + std::to_string(actors));
        cfg.actors = actors;
        const auto many = run(cfg);
        EXPECT_EQ(QTable::maxAbsDifference(one.finalQ, many.finalQ),
                  0.0f);
        EXPECT_EQ(one.commRounds, many.commRounds);
        EXPECT_EQ(one.policyRefreshes, many.policyRefreshes);
        EXPECT_EQ(one.transitions, many.transitions);
        // More actors shorten each collection slice.
        EXPECT_LT(many.collectSeconds, one.collectSeconds);
    }
}

TEST_P(StreamingDeterminism, OverlapIsTimingOnlyAndStrictlyFaster)
{
    auto cfg = lakeConfig(GetParam());
    cfg.overlap = true;
    const auto streamed = run(cfg);
    cfg.overlap = false;
    const auto sequential = run(cfg);

    EXPECT_EQ(QTable::maxAbsDifference(streamed.finalQ,
                                       sequential.finalQ),
              0.0f);
    EXPECT_EQ(streamed.commRounds, sequential.commRounds);
    EXPECT_EQ(streamed.collectSeconds, sequential.collectSeconds);
    // Same busy work on every track. Tolerance, not bit equality:
    // the identical durations sit at different clock offsets, so the
    // timeline's end-minus-start round-trip may differ in the last
    // ulp between the two schedules.
    EXPECT_NEAR(streamed.time.kernel, sequential.time.kernel, 1e-12);
    EXPECT_NEAR(streamed.time.hostCollect,
                sequential.time.hostCollect, 1e-12);
    // ...but the overlapped schedule finishes strictly sooner.
    EXPECT_LT(streamed.endToEnd, sequential.endToEnd);
}

INSTANTIATE_TEST_SUITE_P(
    Formats, StreamingDeterminism,
    ::testing::Values(NumericFormat::Fp32, NumericFormat::Int32));

TEST(Streaming, HostPoolSizeNeverChangesTheQTable)
{
    const auto cfg = lakeConfig(NumericFormat::Int32);
    const auto serial = run(cfg, 1);
    const auto pooled = run(cfg, 8);
    EXPECT_EQ(QTable::maxAbsDifference(serial.finalQ, pooled.finalQ),
              0.0f);
    EXPECT_EQ(serial.endToEnd, pooled.endToEnd);
}

TEST(Streaming, RefreshScheduleIsGenerationIndexed)
{
    auto cfg = lakeConfig(NumericFormat::Int32);
    // Generations 0..5 with period 2 refresh at g = 2 and g = 4.
    cfg.refreshPeriod = 2;
    cfg.actors = 1;
    const auto a = run(cfg);
    EXPECT_EQ(a.policyRefreshes, 2);
    cfg.actors = 4;
    const auto b = run(cfg);
    EXPECT_EQ(b.policyRefreshes, 2);
    EXPECT_EQ(QTable::maxAbsDifference(a.finalQ, b.finalQ), 0.0f);

    // The refreshed behaviour policy really changes what the actors
    // collect (and therefore what the learner trains on).
    cfg.actors = 1;
    cfg.refreshPeriod = 0;
    const auto never = run(cfg);
    EXPECT_EQ(never.policyRefreshes, 0);
    EXPECT_GT(QTable::maxAbsDifference(a.finalQ, never.finalQ), 0.0f);
}

TEST(Streaming, BreakdownIsAViewOfTheTimeline)
{
    const auto cfg = lakeConfig(NumericFormat::Int32);
    const auto r = run(cfg);

    EXPECT_EQ(r.endToEnd, r.timeline.endTime());
    EXPECT_EQ(r.time.hostCollect,
              r.timeline.totalForBucket(TimeBucket::HostCollect));
    EXPECT_EQ(r.time.kernel,
              r.timeline.totalForBucket(TimeBucket::Kernel));

    // One collection slice per generation (plus refresh spans) on
    // the host track.
    int host_events = 0;
    for (const auto &e : r.timeline.events())
        if (e.phase == Phase::HostCollect)
            ++host_events;
    EXPECT_EQ(host_events, cfg.generations + r.policyRefreshes);

    // The host track genuinely overlaps the PIM tracks: the makespan
    // is strictly below the sum of all busy time.
    EXPECT_LT(r.endToEnd, r.time.total() + r.time.hostCollect);
    // hostCollect is excluded from the four-way total on purpose.
    EXPECT_EQ(r.time.total(), r.time.kernel + r.time.cpuToPim +
                                  r.time.pimToCpu + r.time.interCore);
}

TEST(Streaming, ConfigValidation)
{
    PimConfig pim;
    pim.numDpus = 4;
    pim.mramBytesPerDpu = 1u << 20;
    PimSystem system(pim);

    auto cfg = lakeConfig(NumericFormat::Int32);
    cfg.actors = 0;
    EXPECT_DEATH(StreamingTrainer(system, cfg),
                 "actor count must be >= 1");

    cfg = lakeConfig(NumericFormat::Int32);
    cfg.generations = 0;
    EXPECT_DEATH(StreamingTrainer(system, cfg),
                 "generation count must be positive");
}

} // namespace
