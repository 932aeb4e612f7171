/**
 * @file
 * The command-stream engine and its event timeline:
 *
 *  - a stream's commands land on its timeline as contiguous,
 *    non-overlapping intervals whose durations sum to sync();
 *  - the timing-only gather charges exactly what the functional one
 *    does (and validates the range the same way);
 *  - the functional gather hands out read-only views into the banks
 *    (empty for dropped cores), discards them on a corrupt transfer,
 *    and re-reads cleanly on retry;
 *  - the trainer's reported TimeBreakdown is derived from — and hence
 *    always agrees with — its result timeline;
 *  - the exported Chrome trace JSON holds one "X" slice per command,
 *    with per-bucket duration sums matching the breakdown.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "swiftrl/swiftrl.hh"

namespace {

using swiftrl::breakdownFromTimeline;
using swiftrl::SessionConfig;
using swiftrl::PimTrainer;
using swiftrl::Workload;
using swiftrl::pimsim::CommandStream;
using swiftrl::pimsim::Phase;
using swiftrl::pimsim::PimConfig;
using swiftrl::pimsim::PimSystem;
using swiftrl::pimsim::TimeBucket;
using swiftrl::pimsim::Timeline;
using swiftrl::rlcore::Algorithm;
using swiftrl::rlcore::collectRandomDataset;
using swiftrl::rlcore::NumericFormat;
using swiftrl::rlcore::Sampling;

PimSystem
makeSystem(std::size_t dpus)
{
    PimConfig cfg;
    cfg.numDpus = dpus;
    cfg.mramBytesPerDpu = 1u << 20;
    return PimSystem(cfg);
}

std::vector<std::uint8_t>
pattern(std::size_t n, std::uint8_t base)
{
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::uint8_t>(base + i);
    return v;
}

/** Owned copy of a gathered view, for value comparisons. */
std::vector<std::uint8_t>
bytesOf(std::span<const std::uint8_t> view)
{
    return {view.begin(), view.end()};
}

TEST(CommandStream, CommandsRecordAContiguousTimeline)
{
    auto system = makeSystem(4);
    CommandStream stream(system);
    const auto payload = pattern(256, 1);

    std::vector<std::span<const std::uint8_t>> chunks(
        4, std::span<const std::uint8_t>(payload));
    double summed = 0.0;
    summed += stream.pushChunks(4096, chunks);
    summed += stream.pushBroadcast(0, payload);
    summed += stream
                  .launch([](swiftrl::pimsim::KernelContext &ctx) {
                      ctx.aluOps(100);
                  })
                  .seconds;
    std::vector<std::span<const std::uint8_t>> out;
    summed += stream.gather(0, payload.size(), out).seconds;

    const auto &timeline = stream.timeline();
    ASSERT_EQ(timeline.size(), 4u);
    const auto &events = timeline.events();

    // Intervals are non-overlapping, contiguous, and start at zero:
    // a single stream models one serialised host command queue.
    EXPECT_EQ(events.front().start, 0.0);
    double total = 0.0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_GE(events[i].end, events[i].start) << "event " << i;
        if (i > 0) {
            EXPECT_EQ(events[i].start, events[i - 1].end)
                << "gap or overlap before event " << i;
        }
        total += events[i].duration();
    }
    EXPECT_DOUBLE_EQ(total, summed);

    // sync() closes the interval spanning all four commands.
    EXPECT_DOUBLE_EQ(stream.sync(), total);
    EXPECT_DOUBLE_EQ(stream.sync(), 0.0);
    EXPECT_DOUBLE_EQ(stream.now(), total);

    // Each command mapped to its phase, in call order.
    EXPECT_EQ(events[0].phase, Phase::Scatter);
    EXPECT_EQ(events[1].phase, Phase::Broadcast);
    EXPECT_EQ(events[2].phase, Phase::Kernel);
    EXPECT_EQ(events[3].phase, Phase::Gather);

    // The gathered payload round-tripped through MRAM.
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(bytesOf(out[2]), payload);
}

TEST(CommandStream, TimedGatherChargesExactlyTheFunctionalCost)
{
    auto system = makeSystem(3);
    CommandStream stream(system);
    const auto payload = pattern(512, 7);
    stream.pushBroadcast(0, payload);

    std::vector<std::span<const std::uint8_t>> out;
    const auto status = stream.gather(0, payload.size(), out);
    ASSERT_TRUE(status.ok());
    const double functional = status.seconds;
    const double timed = stream.gatherTimed(0, payload.size());
    EXPECT_EQ(timed, functional);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(bytesOf(out[0]), payload);

    // Both gathers were recorded as events on the same track.
    EXPECT_EQ(stream.timeline().size(), 3u);
    EXPECT_DOUBLE_EQ(stream.timeline().totalForPhase(Phase::Gather),
                     functional + timed);
}

TEST(CommandStream, StreamsOnOneSystemKeepIndependentClocks)
{
    auto system = makeSystem(2);
    CommandStream a(system);
    CommandStream b(system);
    const auto payload = pattern(64, 3);

    a.pushBroadcast(0, payload);
    EXPECT_GT(a.now(), 0.0);
    EXPECT_EQ(b.now(), 0.0);
    EXPECT_TRUE(b.timeline().empty());

    // Functional state is shared: stream b reads what a wrote.
    std::vector<std::span<const std::uint8_t>> out;
    b.gather(0, payload.size(), out);
    EXPECT_EQ(bytesOf(out[1]), payload);
}

TEST(CommandStream, HostReduceAndOnCoreComputeAdvanceTheClock)
{
    auto system = makeSystem(1);
    CommandStream stream(system);
    stream.hostReduce(1.5e-3);
    stream.onCoreCompute(0.5e-3, TimeBucket::InterCore);
    EXPECT_DOUBLE_EQ(stream.now(), 2.0e-3);
    EXPECT_DOUBLE_EQ(
        stream.timeline().totalForBucket(TimeBucket::InterCore),
        2.0e-3);
    EXPECT_DOUBLE_EQ(
        stream.timeline().totalForPhase(Phase::HostReduce), 1.5e-3);
}

/** A small real training run to exercise the full command sequence. */
swiftrl::PimTrainResult
trainLake(PimSystem &system)
{
    swiftrl::rlenv::FrozenLake env(true);
    const auto data = collectRandomDataset(env, 1500, 21);
    SessionConfig cfg;
    cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                            NumericFormat::Int32};
    cfg.hyper.episodes = 20;
    cfg.tau = 5;
    return PimTrainer(system, cfg).train(data, 16, 4);
}

TEST(CommandStream, TrainerBreakdownDerivesFromItsTimeline)
{
    auto system = makeSystem(8);
    const auto result = trainLake(system);

    ASSERT_FALSE(result.timeline.empty());
    const auto derived = breakdownFromTimeline(result.timeline);
    EXPECT_EQ(derived.kernel, result.time.kernel);
    EXPECT_EQ(derived.cpuToPim, result.time.cpuToPim);
    EXPECT_EQ(derived.pimToCpu, result.time.pimToCpu);
    EXPECT_EQ(derived.interCore, result.time.interCore);

    // Bucket totals are the same sums in the same order.
    EXPECT_EQ(result.timeline.totalForBucket(TimeBucket::Kernel),
              result.time.kernel);
    EXPECT_EQ(result.timeline.totalForBucket(TimeBucket::InterCore),
              result.time.interCore);

    // The timeline spans the whole modelled run.
    EXPECT_DOUBLE_EQ(result.timeline.endTime(), result.time.total());
}

TEST(CommandStream, ChromeTraceExportsOneSlicePerCommand)
{
    auto system = makeSystem(8);
    const auto result = trainLake(system);

    std::ostringstream os;
    result.timeline.exportChromeTrace(os);
    const std::string json = os.str();

    // Structurally valid: brace/bracket balanced, object at the top.
    EXPECT_EQ(json.front(), '{');
    long braces = 0, brackets = 0;
    for (const char c : json) {
        braces += (c == '{') - (c == '}');
        brackets += (c == '[') - (c == ']');
    }
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);

    // One complete slice per enqueued command.
    std::size_t slices = 0;
    for (std::size_t pos = 0;
         (pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos;
         ++pos)
        ++slices;
    EXPECT_EQ(slices, result.timeline.size());

    // Per-bucket slice durations (in trace microseconds) sum to the
    // reported breakdown. Events are one per line, so parse by line.
    double bucket_us[swiftrl::pimsim::kNumBuckets] = {};
    std::istringstream lines(json);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.find("\"ph\":\"X\"") == std::string::npos)
            continue;
        const auto dur_at = line.find("\"dur\":");
        const auto bucket_at = line.find("\"bucket\":\"");
        ASSERT_NE(dur_at, std::string::npos);
        ASSERT_NE(bucket_at, std::string::npos);
        const double dur = std::stod(line.substr(dur_at + 6));
        const auto name_at = bucket_at + 10;
        const auto name =
            line.substr(name_at, line.find('"', name_at) - name_at);
        for (std::size_t b = 0; b < swiftrl::pimsim::kNumBuckets;
             ++b) {
            if (name ==
                bucketName(static_cast<TimeBucket>(b)))
                bucket_us[b] += dur;
        }
    }
    const auto expect_us = [&](TimeBucket bucket, double seconds) {
        EXPECT_NEAR(bucket_us[static_cast<std::size_t>(bucket)],
                    seconds * 1e6, 1e-6)
            << bucketName(bucket);
    };
    expect_us(TimeBucket::Kernel, result.time.kernel);
    expect_us(TimeBucket::CpuToPim, result.time.cpuToPim);
    expect_us(TimeBucket::PimToCpu, result.time.pimToCpu);
    expect_us(TimeBucket::InterCore, result.time.interCore);
}

/** Undo the exporter's JSON string escaping. */
std::string
jsonUnescape(const std::string &s)
{
    std::string out;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\') {
            out.push_back(s[i]);
            continue;
        }
        ++i;
        if (s[i] == 'u') {
            out.push_back(static_cast<char>(
                std::stoi(s.substr(i + 1, 4), nullptr, 16)));
            i += 4;
        } else {
            out.push_back(s[i]);
        }
    }
    return out;
}

TEST(CommandStream, TraceEscapesLabelsLosslessly)
{
    // Labels with every character class the escaper must handle:
    // quotes, backslashes, and control characters (which used to be
    // silently dropped, making trace labels diverge from the labels
    // tools grep for). The exported slice name must unescape back to
    // the exact original label.
    const std::vector<std::string> labels = {
        "plain", "quo\"te", "back\\slash", "new\nline", "tab\there",
        "bell\x07", "mix\"\\\x1f",
    };
    auto system = makeSystem(1);
    CommandStream stream(system);
    for (const auto &label : labels)
        stream.recordHostSpan(Phase::HostCollect,
                              TimeBucket::HostCollect, 0.0, 1.0e-6,
                              label);

    std::ostringstream os;
    stream.timeline().exportChromeTrace(os);
    const std::string json = os.str();

    // Control characters never appear raw in valid JSON strings (the
    // exporter's own inter-event newlines are whitespace outside any
    // string, which is fine).
    for (const char c : json) {
        if (c != '\n') {
            EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
        }
    }

    // Each slice's name unescapes to the exact original label.
    std::istringstream lines(json);
    std::string line;
    std::vector<std::string> names;
    while (std::getline(lines, line)) {
        if (line.find("\"ph\":\"X\"") == std::string::npos)
            continue;
        const auto at = line.find("{\"name\":\"") + 9;
        // Find the closing quote, skipping escaped ones.
        std::size_t end = at;
        while (line[end] != '"' || line[end - 1] == '\\') {
            // A literal backslash escape ("\\") must not hide the
            // closing quote that follows it.
            if (line[end] == '\\' && line[end + 1] == '\\')
                ++end;
            ++end;
        }
        names.push_back(jsonUnescape(line.substr(at, end - at)));
    }
    ASSERT_EQ(names.size(), labels.size());
    for (std::size_t i = 0; i < labels.size(); ++i)
        EXPECT_EQ(names[i], labels[i]) << "label " << i;
}

// --- the view-returning gather --------------------------------------

TEST(CommandStreamGather, ViewsAliasTheBankBytes)
{
    auto system = makeSystem(3);
    CommandStream stream(system);
    std::vector<std::vector<std::uint8_t>> payloads;
    std::vector<std::span<const std::uint8_t>> chunks;
    for (std::size_t i = 0; i < 3; ++i)
        payloads.push_back(
            pattern(96, static_cast<std::uint8_t>(40 * i)));
    for (const auto &p : payloads)
        chunks.emplace_back(p);
    stream.pushChunks(64, chunks);

    std::vector<std::span<const std::uint8_t>> out;
    ASSERT_TRUE(stream.gather(64, 96, out).ok());
    ASSERT_EQ(out.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(bytesOf(out[i]), payloads[i]) << "core " << i;

    // In place, not a copy: a later write inside the written extent
    // shows through the views (which is why callers read them
    // before the next MRAM-writing command).
    const auto overwrite = pattern(96, 200);
    stream.pokeBroadcast(64, overwrite);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_EQ(bytesOf(out[i]), overwrite) << "core " << i;
}

TEST(CommandStreamGather, NeverWrittenRangeReadsAsZeros)
{
    auto system = makeSystem(2);
    CommandStream stream(system);
    std::vector<std::span<const std::uint8_t>> out;
    ASSERT_TRUE(stream.gather(4096, 128, out).ok());
    ASSERT_EQ(out.size(), 2u);
    for (const auto &view : out)
        EXPECT_EQ(bytesOf(view), std::vector<std::uint8_t>(128, 0));
}

TEST(CommandStreamGather, DeadCoreGetsAnEmptyView)
{
    PimConfig cfg;
    cfg.numDpus = 3;
    cfg.mramBytesPerDpu = 1u << 20;
    cfg.faultPlan.scheduled = {
        {swiftrl::pimsim::FaultKind::PermanentDropout, /*site=*/0,
         /*dpu=*/1}};
    PimSystem system(cfg);
    CommandStream stream(system);
    const auto payload = pattern(32, 9);
    stream.pushBroadcast(0, payload);
    const auto launched = stream.launch(
        [](swiftrl::pimsim::KernelContext &ctx) { ctx.aluOps(1); });
    ASSERT_FALSE(launched.ok());
    ASSERT_TRUE(stream.isDead(1));

    std::vector<std::span<const std::uint8_t>> out;
    ASSERT_TRUE(stream.gather(0, payload.size(), out).ok());
    ASSERT_EQ(out.size(), 3u);
    EXPECT_TRUE(out[1].empty());
    EXPECT_EQ(bytesOf(out[0]), payload);
    EXPECT_EQ(bytesOf(out[2]), payload);
}

TEST(CommandStreamGather, ChargesWhatTheTimedGatherCharges)
{
    auto system = makeSystem(4);
    CommandStream stream(system);
    const auto payload = pattern(300, 5);
    stream.pushBroadcast(0, payload);
    const double before = stream.now();

    std::vector<std::span<const std::uint8_t>> out;
    const auto status =
        stream.gather(0, payload.size(), out, TimeBucket::InterCore,
                      "gather:q");
    ASSERT_TRUE(status.ok());
    // The modelled PIM-to-CPU transfer of the payload from 4 cores.
    EXPECT_EQ(status.seconds,
              system.config().transferModel.pimToCpuSeconds(
                  payload.size(), 4));
    EXPECT_EQ(stream.gatherTimed(0, payload.size(),
                                 TimeBucket::InterCore, "gather:q"),
              status.seconds);

    const auto &events = stream.timeline().events();
    ASSERT_EQ(events.size(), 3u);
    for (std::size_t i = 1; i < 3; ++i) {
        EXPECT_EQ(events[i].phase, Phase::Gather);
        EXPECT_EQ(events[i].bucket, TimeBucket::InterCore);
        EXPECT_EQ(events[i].label, "gather:q");
        EXPECT_DOUBLE_EQ(events[i].duration(), status.seconds);
    }
    EXPECT_EQ(events[1].start, before);
}

TEST(CommandStreamGather, CorruptGatherClearsViewsAndRetriesCleanly)
{
    PimConfig cfg;
    cfg.numDpus = 3;
    cfg.mramBytesPerDpu = 1u << 20;
    cfg.faultPlan.scheduled = {
        {swiftrl::pimsim::FaultKind::CorruptGather, /*site=*/0,
         /*dpu=*/2}};
    PimSystem system(cfg);
    CommandStream stream(system);
    const auto payload = pattern(64, 11);
    stream.pushBroadcast(0, payload);

    std::vector<std::span<const std::uint8_t>> out;
    const auto failed = stream.gather(0, payload.size(), out);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.error->kind,
              swiftrl::pimsim::FaultKind::CorruptGather);
    EXPECT_EQ(failed.error->site, 0u);
    EXPECT_EQ(failed.error->dpus, std::vector<std::size_t>{2});
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(stream.faultSitesUsed(), 1u);
    EXPECT_EQ(stream.timeline().events().back().label,
              "fault:corrupt-gather");

    // The flip hit a received copy, never the bank: a retry (the
    // next fault site) reads every core's bytes cleanly.
    const auto retried = stream.gather(0, payload.size(), out);
    ASSERT_TRUE(retried.ok());
    EXPECT_EQ(stream.faultSitesUsed(), 2u);
    ASSERT_EQ(out.size(), 3u);
    for (const auto &view : out)
        EXPECT_EQ(bytesOf(view), payload);
}

TEST(CommandStreamDeath, OutOfBankTimedGatherIsFatal)
{
    auto system = makeSystem(1);
    CommandStream stream(system);
    // The timing-only path must fail exactly where the functional
    // gather would: one byte past the MRAM bank.
    EXPECT_EXIT((void)stream.gatherTimed((1u << 20) - 8, 16),
                ::testing::ExitedWithCode(1), "MRAM");
}

} // namespace
