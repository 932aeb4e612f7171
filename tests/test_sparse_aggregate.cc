/**
 * @file
 * The sparse synchronisation average. The session reads back from
 * each bank only the Q entries the core's chunk can write
 * (TrainerSession::touchedEntries) and takes every other entry from
 * the wire it last pushed. That is exact only while two things hold,
 * and this suite checks both after every launch:
 *
 *  - the invariant: every live bank's Q region equals the pushed wire
 *    outside the core's touched entries, for all 18 kernel variants on
 *    both engines, multi-tasklet, sharded, faulted and
 *    dropout-redistributed, restored and streaming runs;
 *  - the result: the session's aggregate equals QTable::average over
 *    the banks' tables, as the fixed-point reader decodes them, bit for
 *    bit, at host-pool sizes 1, 2 and 8.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "pimsim/command_stream.hh"
#include "pimsim/dpu.hh"
#include "rlcore/collection.hh"
#include "rlcore/qtable.hh"
#include "rlenv/registry.hh"
#include "swiftrl/session.hh"
#include "swiftrl/sharding.hh"
#include "swiftrl/workload.hh"

namespace {

using swiftrl::SessionCheckpoint;
using swiftrl::SessionConfig;
using swiftrl::TrainerSession;
using swiftrl::Workload;
using swiftrl::pimsim::CommandStream;
using swiftrl::pimsim::FaultKind;
using swiftrl::pimsim::PimConfig;
using swiftrl::pimsim::PimSystem;
using namespace swiftrl::rlcore;

constexpr std::size_t kCores = 8;

/** A bank's decoded table, through the fixed-point reader rather
 *  than the session's decode. */
QTable
decodeBank(const swiftrl::QTableIo &qio, NumericFormat format,
           const std::vector<std::uint8_t> &bytes, StateId rows,
           ActionId na)
{
    if (format == NumericFormat::Fp32) {
        QTable t(rows, na);
        std::memcpy(t.values().data(), bytes.data(), bytes.size());
        return t;
    }
    std::vector<std::int32_t> raw(bytes.size() / sizeof(std::int32_t));
    std::memcpy(raw.data(), bytes.data(), bytes.size());
    return QTable::fromFixed(rows, na, raw, qio.fixedScale());
}

/**
 * Right after each successful launch, before the session gathers:
 * counts bank entries outside touchedEntries() that differ from the
 * pushed wire, and computes the dense reference the aggregate must
 * equal. The session's plan is re-derived here from (states, shards,
 * cores); unsharded is one group over every core.
 */
class SyncChecker : public swiftrl::pimsim::StreamObserver
{
  public:
    SyncChecker(const TrainerSession &session, NumericFormat format,
                StateId ns, ActionId na, std::size_t shards)
        : expected(ns, na), _session(session), _format(format),
          _na(na),
          _plan(swiftrl::makeShardPlan(ns, shards ? shards : 1,
                                       kCores))
    {
    }

    void
    onLaunch(CommandStream &stream,
             const swiftrl::pimsim::LaunchStats &) override
    {
        ++launches;
        const QTable &pushed_from = _session.aggregated();
        expected = pushed_from;
        const StateId rows = _plan.map.rowsPerShard();
        const std::size_t entries =
            static_cast<std::size_t>(rows) * _na;
        const std::size_t bytes = entries * kQWireBytesPerEntry;
        for (std::size_t s = 0; s < _plan.map.numShards(); ++s) {
            const auto pushed = swiftrl::packSliceWire(
                _session.qio(), pushed_from, _plan.map, s);
            std::vector<QTable> tables;
            for (const std::size_t core : _plan.coresOfShard[s]) {
                if (stream.isDead(core))
                    continue;
                std::vector<std::uint8_t> bank(bytes);
                stream.system().dpu(core).mramRead(0, bank.data(),
                                                   bytes);
                std::vector<bool> touched(entries, false);
                for (const std::uint32_t e :
                     _session.touchedEntries(core))
                    touched[e] = true;
                for (std::size_t e = 0; e < entries; ++e) {
                    const bool same =
                        std::memcmp(bank.data() + 4 * e,
                                    pushed.data() + 4 * e, 4) == 0;
                    if (!touched[e])
                        violations += same ? 0 : 1;
                    else
                        written += same ? 0 : 1;
                }
                tables.push_back(decodeBank(_session.qio(), _format,
                                            bank, rows, _na));
            }
            const QTable mean = QTable::average(tables);
            const std::size_t row = _na;
            std::copy_n(mean.values().begin(),
                        static_cast<std::size_t>(_plan.map.ownedRows(s)) *
                            row,
                        expected.values().begin() +
                            static_cast<std::size_t>(
                                _plan.map.firstState(s)) *
                                row);
        }
    }

    /** Launches seen. */
    int launches = 0;
    /** Entries outside a core's touched set that left the wire. */
    std::size_t violations = 0;
    /** Touched entries a launch changed (training happened). */
    std::size_t written = 0;
    /** Dense QTable::average of the last launch's banks. */
    QTable expected;

  private:
    const TrainerSession &_session;
    NumericFormat _format;
    ActionId _na;
    swiftrl::ShardPlan _plan;
};

bool
sameBits(const QTable &a, const QTable &b)
{
    return a.entryCount() == b.entryCount() &&
           std::memcmp(a.values().data(), b.values().data(),
                       a.entryCount() * sizeof(float)) == 0;
}

/** Step @p session to the end of its armed budget, checking every
 *  round's aggregate against the dense reference. */
void
stepChecked(TrainerSession &session, SyncChecker &checker)
{
    session.stream().setObserver(&checker);
    while (session.step()) {
        EXPECT_TRUE(sameBits(session.aggregated(), checker.expected))
            << "round " << session.commRounds();
    }
    session.stream().setObserver(nullptr);
}

struct RunSpec
{
    Workload workload;
    bool batch = true;
    std::size_t shards = 0;
    unsigned tasklets = 1;
    unsigned hostThreads = 1;
    bool faults = false;
};

PimConfig
machine(const RunSpec &run)
{
    PimConfig pim;
    pim.numDpus = kCores;
    pim.hostThreads = run.hostThreads;
    if (run.faults) {
        // A transient retry of the first launch (sites 0 and 1) and
        // a permanent dropout at the second round's launch (site 3,
        // after the first gather), which redistributes the chunks
        // over the survivors mid-run.
        pim.faultPlan.scheduled = {
            {FaultKind::TransientKernel, /*site=*/0, /*dpu=*/1},
            {FaultKind::PermanentDropout, /*site=*/3, /*dpu=*/3}};
    }
    return pim;
}

SessionConfig
config(const RunSpec &run)
{
    SessionConfig cfg;
    cfg.workload = run.workload;
    cfg.hyper.episodes = 6;
    cfg.tau = 2;
    cfg.shards = run.shards;
    cfg.tasklets = run.tasklets;
    cfg.batchExec = run.batch;
    return cfg;
}

class SparseAggregate : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _env = swiftrl::rlenv::makeEnvironment("frozenlake");
        // Enough transitions that every core reaches the goal reward,
        // so the tables compared are far from all-zero.
        _data = collectRandomDataset(*_env, 8000, 7);
    }

    /** One offline run on frozenlake, checked after every launch. */
    void
    expectExact(const RunSpec &run)
    {
        expectExact(run, *_env, _data);
    }

    void
    expectExact(const RunSpec &run,
                const swiftrl::rlenv::Environment &env,
                const Dataset &data)
    {
        PimSystem system(machine(run));
        TrainerSession session(system, config(run));
        session.beginOffline(data, env.numStates(), env.numActions());
        SyncChecker checker(session, run.workload.format,
                            env.numStates(), env.numActions(),
                            run.shards);
        stepChecked(session, checker);
        EXPECT_EQ(checker.launches, 3);
        EXPECT_EQ(checker.violations, 0u);
        EXPECT_GT(checker.written, 0u);
        EXPECT_EQ(session.coresLost(), run.faults ? 1u : 0u);
    }

    std::unique_ptr<swiftrl::rlenv::Environment> _env;
    Dataset _data;
};

TEST_F(SparseAggregate, EveryKernelVariantOnBothEngines)
{
    for (const Workload &w : swiftrl::extendedWorkloads()) {
        for (const bool batch : {false, true}) {
            SCOPED_TRACE(w.name() + (batch ? " batch" : " scalar"));
            expectExact({.workload = w, .batch = batch});
        }
    }
}

TEST_F(SparseAggregate, EqualsTheDenseAverageAtEveryPoolSize)
{
    // A 48x48 lake's shape adds a 9,216-entry table (it still fits
    // the 64 KB WRAM) to frozenlake's 64. Random walks seldom reach
    // its goal, so the records are drawn uniformly with rewards in
    // [-1, 1] and one in ten terminal.
    const auto lake = swiftrl::rlenv::makeEnvironment("lake:48");
    Dataset lake_data;
    std::mt19937 gen(5);
    std::uniform_real_distribution<float> reward(-1.0f, 1.0f);
    for (int k = 0; k < 8000; ++k) {
        const auto s = static_cast<StateId>(gen() % lake->numStates());
        const auto a = static_cast<ActionId>(gen() % lake->numActions());
        const auto s2 = static_cast<StateId>(gen() % lake->numStates());
        lake_data.append({s, a, reward(gen), s2, gen() % 10 == 0});
    }
    for (const Workload &w :
         {Workload{Algorithm::QLearning, Sampling::Seq,
                   NumericFormat::Fp32},
          Workload{Algorithm::Sarsa, Sampling::Ran,
                   NumericFormat::Int32}}) {
        for (const unsigned pool : {1u, 2u, 8u}) {
            SCOPED_TRACE(w.name() + " pool=" + std::to_string(pool));
            expectExact({.workload = w, .hostThreads = pool});
            expectExact(
                {.workload = w, .shards = 4, .hostThreads = pool});
            expectExact({.workload = w, .hostThreads = pool}, *lake,
                        lake_data);
        }
    }
}

TEST_F(SparseAggregate, MultiTaskletShardedAndFaultedRuns)
{
    const Workload w{Algorithm::QLearning, Sampling::Str,
                     NumericFormat::Int8};
    expectExact({.workload = w, .tasklets = 4});
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        expectExact({.workload = w, .shards = shards});
    }
    for (const unsigned pool : {1u, 8u}) {
        SCOPED_TRACE("faults pool=" + std::to_string(pool));
        expectExact({.workload = w, .hostThreads = pool, .faults = true});
        expectExact({.workload = w,
                     .shards = 2,
                     .hostThreads = pool,
                     .faults = true});
    }
}

TEST_F(SparseAggregate, RestoredRunsKeepTheInvariant)
{
    for (const RunSpec &run :
         {RunSpec{.workload = {Algorithm::QLearning, Sampling::Seq,
                               NumericFormat::Int32},
                  .faults = true},
          RunSpec{.workload = {Algorithm::Sarsa, Sampling::Seq,
                               NumericFormat::Fp32},
                  .shards = 4}}) {
        SCOPED_TRACE(run.workload.name());
        SessionCheckpoint ck;
        {
            PimSystem system(machine(run));
            TrainerSession session(system, config(run));
            session.beginOffline(_data, _env->numStates(),
                                 _env->numActions());
            ASSERT_TRUE(session.step());
            ck = session.checkpoint();
        }
        PimSystem system(machine(run));
        TrainerSession session(system, config(run));
        session.restoreOffline(_data, ck);
        SyncChecker checker(session, run.workload.format,
                            _env->numStates(), _env->numActions(),
                            run.shards);
        stepChecked(session, checker);
        EXPECT_EQ(checker.launches, 2);
        EXPECT_EQ(checker.violations, 0u);
        EXPECT_GT(checker.written, 0u);
    }
}

TEST_F(SparseAggregate, StreamingGenerationsKeepTheInvariant)
{
    const RunSpec run{.workload = {Algorithm::QLearning, Sampling::Seq,
                                   NumericFormat::Int32},
                      .hostThreads = 2};
    SessionConfig cfg = config(run);
    cfg.streaming = true;
    PimSystem system(machine(run));
    TrainerSession session(system, cfg);
    session.beginStreaming(_env->numStates(), _env->numActions());
    SyncChecker checker(session, run.workload.format, _env->numStates(),
                        _env->numActions(), 0);
    // Generations of different sizes, so the partition (and every
    // core's touched set) changes between them.
    const Dataset second = collectRandomDataset(*_env, 5000, 8);
    for (const Dataset *gen : {&std::as_const(_data), &second}) {
        session.loadGeneration(*gen);
        stepChecked(session, checker);
    }
    EXPECT_EQ(checker.launches, 6);
    EXPECT_EQ(checker.violations, 0u);
    EXPECT_GT(checker.written, 0u);
}

} // namespace
