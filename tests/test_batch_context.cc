/**
 * @file
 * Batch-interpreter bit-identity: running eligible kernels through
 * the lockstep batch engine (pimsim::BatchKernelContext +
 * runTrainingKernelBatch + CommandStream::launchBatch) must be
 * observationally identical to the per-core scalar interpreter —
 * same final Q-tables, same per-core cycles, per-class op counts and
 * DMA bytes, same LCG streams, same modelled time breakdown — across
 * every kernel variant, with and without fault injection, sharded
 * and unsharded, and for any host-pool size. The lane-mask unit
 * tests pin the cohort semantics directly: divergent chunk lengths
 * retire per-lane, empty lanes charge nothing, and cores outside the
 * cohort are untouched.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/fixed_point.hh"
#include "pimsim/batch_context.hh"
#include "pimsim/command_stream.hh"
#include "pimsim/dpu.hh"
#include "pimsim/kernel_context.hh"
#include "rlcore/dataset.hh"
#include "rlcore/seeds.hh"
#include "rlenv/registry.hh"
#include "swiftrl/pim_kernels.hh"
#include "swiftrl/pim_trainer.hh"
#include "swiftrl/session.hh"
#include "swiftrl/sharding.hh"
#include "swiftrl/workload.hh"

namespace {

using swiftrl::KernelParams;
using swiftrl::SessionConfig;
using swiftrl::PimTrainer;
using swiftrl::Workload;
using swiftrl::pimsim::BatchKernelContext;
using swiftrl::pimsim::Dpu;
using swiftrl::pimsim::DpuCostModel;
using swiftrl::pimsim::FaultKind;
using swiftrl::pimsim::KernelContext;
using swiftrl::pimsim::kNumOpClasses;
using swiftrl::pimsim::PimConfig;
using swiftrl::pimsim::PimSystem;
using swiftrl::rlcore::NumericFormat;
using swiftrl::rlcore::QTable;

// --- trainer-level identity matrix ------------------------------------

/** Everything observable about one training run. */
struct Fingerprint
{
    std::vector<float> q;
    std::vector<float> roundDeltas;
    std::vector<std::uint64_t> coreCycles;
    std::vector<std::array<std::uint64_t, kNumOpClasses>> coreOps;
    std::vector<std::uint64_t> coreDma;
    double kernelSec = 0.0;
    double totalSec = 0.0;
    int faults = 0;
    std::size_t coresLost = 0;

    bool
    operator==(const Fingerprint &o) const
    {
        return q == o.q && roundDeltas == o.roundDeltas &&
               coreCycles == o.coreCycles && coreOps == o.coreOps &&
               coreDma == o.coreDma && kernelSec == o.kernelSec &&
               totalSec == o.totalSec && faults == o.faults &&
               coresLost == o.coresLost;
    }
};

struct RunSpec
{
    bool batchExec = false;
    std::size_t shards = 0;
    bool fault = false;
    unsigned hostThreads = 1;
    std::int32_t scale = swiftrl::common::kDefaultScale;
};

Fingerprint
runTrain(const Workload &w, const swiftrl::rlcore::Dataset &data,
         swiftrl::rlcore::StateId ns, swiftrl::rlcore::ActionId na,
         const RunSpec &spec)
{
    PimConfig pim;
    pim.numDpus = 8;
    pim.hostThreads = spec.hostThreads;
    if (spec.fault) {
        // One transient (retried launch) and one permanent dropout
        // (redistribution over the survivors), at fixed sites so the
        // schedule is identical across engines. Sites count launches
        // and gathers: the retried first launch takes sites 0 and 1,
        // its gather 2, and the second round's launch 3.
        pim.faultPlan.scheduled = {
            {FaultKind::TransientKernel, /*site=*/0, /*dpu=*/1},
            {FaultKind::PermanentDropout, /*site=*/3, /*dpu=*/3}};
    }
    PimSystem system(pim);

    SessionConfig cfg;
    cfg.workload = w;
    cfg.hyper.episodes = 6;
    cfg.tau = 3;
    cfg.shards = spec.shards;
    cfg.batchExec = spec.batchExec;
    cfg.hyper.scale = spec.scale;
    PimTrainer trainer(system, cfg);
    const auto result = trainer.train(data, ns, na);

    Fingerprint f;
    f.q = result.finalQ.values();
    f.roundDeltas = result.roundDeltas;
    for (std::size_t i = 0; i < system.numDpus(); ++i) {
        const Dpu &dpu = system.dpu(i);
        f.coreCycles.push_back(dpu.cycles());
        f.coreOps.push_back(dpu.opCounts());
        f.coreDma.push_back(dpu.dmaBytes());
    }
    f.kernelSec = result.time.kernel;
    f.totalSec = result.time.total();
    f.faults = result.faultsDetected;
    f.coresLost = result.coresLost;
    return f;
}

class BatchIdentity : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _env = swiftrl::rlenv::makeEnvironment("frozenlake");
        // Enough transitions that every core reaches the goal reward,
        // so the tables compared are far from all-zero.
        _data = swiftrl::rlcore::collectRandomDataset(*_env, 8000, 7);
    }

    void
    expectBatchedIdentical(const Workload &w, RunSpec spec)
    {
        spec.batchExec = false;
        const auto scalar = runTrain(w, _data, _env->numStates(),
                                     _env->numActions(), spec);
        spec.batchExec = true;
        const auto batched = runTrain(w, _data, _env->numStates(),
                                      _env->numActions(), spec);
        EXPECT_TRUE(batched == scalar);
        // Identity must be of real work, not two empty runs, and of
        // trained tables: at least a quarter of the aggregated
        // entries are non-zero (frozenlake's 5 terminal states keep 20
        // of its 64 at zero, and INT8's coarse scale rounds more).
        EXPECT_GT(scalar.kernelSec, 0.0);
        std::uint64_t total_cycles = 0;
        for (const auto c : scalar.coreCycles)
            total_cycles += c;
        EXPECT_GT(total_cycles, 0u);
        const auto trained = std::count_if(
            scalar.q.begin(), scalar.q.end(),
            [](float v) { return v != 0.0f; });
        EXPECT_GE(4 * static_cast<std::size_t>(trained), scalar.q.size());
        EXPECT_EQ(scalar.coresLost, spec.fault ? 1u : 0u);
    }

    std::unique_ptr<swiftrl::rlenv::Environment> _env;
    swiftrl::rlcore::Dataset _data;
};

TEST_F(BatchIdentity, EveryKernelVariantMatchesScalar)
{
    // All 18 variants: {QL, SARSA} x {SEQ, RAN, STR} x
    // {FP32, INT32, INT8}.
    for (const Workload &w : swiftrl::extendedWorkloads()) {
        SCOPED_TRACE(w.name());
        expectBatchedIdentical(w, {});
    }
}

TEST_F(BatchIdentity, NonDefaultScaleMatchesScalar)
{
    // The INT32 lanes divide by the default scale as a compile-time
    // constant; any other scale takes the plain division.
    for (const Workload &w : swiftrl::extendedWorkloads()) {
        if (w.format != NumericFormat::Int32)
            continue;
        SCOPED_TRACE(w.name());
        expectBatchedIdentical(w, {.scale = 4096});
    }
}

TEST_F(BatchIdentity, FaultInjectedRunsMatchScalar)
{
    // Transient retry + permanent dropout: the batch engine must
    // consume the same fault sites, retry the same launches, and
    // exclude the dead core from the cohort exactly like the scalar
    // engine's per-core skip.
    for (const Workload &w :
         {Workload{swiftrl::rlcore::Algorithm::QLearning,
                   swiftrl::rlcore::Sampling::Seq,
                   NumericFormat::Fp32},
          Workload{swiftrl::rlcore::Algorithm::Sarsa,
                   swiftrl::rlcore::Sampling::Ran,
                   NumericFormat::Int32}}) {
        for (const unsigned pool : {1u, 8u}) {
            SCOPED_TRACE(w.name() + " pool=" + std::to_string(pool));
            expectBatchedIdentical(
                w, {.fault = true, .hostThreads = pool});
        }
    }
}

TEST_F(BatchIdentity, ShardedRunsMatchScalar)
{
    // Sharded slices give every lane its own halo row count — the
    // per-lane Q geometry must still match the scalar kernel's.
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        for (const Workload &w :
             {Workload{swiftrl::rlcore::Algorithm::QLearning,
                       swiftrl::rlcore::Sampling::Seq,
                       NumericFormat::Fp32},
              Workload{swiftrl::rlcore::Algorithm::Sarsa,
                       swiftrl::rlcore::Sampling::Str,
                       NumericFormat::Int32}}) {
            for (const unsigned pool : {1u, 8u}) {
                SCOPED_TRACE(w.name() + " shards=" +
                             std::to_string(shards) +
                             " pool=" + std::to_string(pool));
                expectBatchedIdentical(
                    w, {.shards = shards, .hostThreads = pool});
            }
        }
    }
}

TEST_F(BatchIdentity, WeightedAggregationFallsBackToScalar)
{
    // Visit tracking is batch-ineligible; batchExec = true must
    // silently take the scalar path and still produce the weighted
    // result (not crash, not drop the visit counters).
    Workload w;
    PimConfig pim;
    pim.numDpus = 8;
    pim.hostThreads = 1;

    auto run = [&](bool batch) {
        PimSystem system(pim);
        SessionConfig cfg;
        cfg.workload = w;
        cfg.hyper.episodes = 6;
        cfg.tau = 3;
        cfg.weightedAggregation = true;
        cfg.batchExec = batch;
        PimTrainer trainer(system, cfg);
        return trainer
            .train(_data, _env->numStates(), _env->numActions())
            .finalQ;
    };
    EXPECT_EQ(QTable::maxAbsDifference(run(false), run(true)), 0.0f);
}

// --- bank-byte parity --------------------------------------------------
//
// Batch lanes without halo rows train in place on their bank's Q
// region; halo lanes train on a staged copy. Either way every bank
// must hold, after each launch, exactly the bytes a scalar launch
// leaves there, with the same clocks and DMA counters.

constexpr std::size_t kDataOffset = 64 * 1024;

/** Bytes of every bank compared: past the Q, data and halo regions
 *  of every layout below (reads past a bank's held bytes are zero). */
constexpr std::size_t kBankSnapshotBytes = 192 * 1024;

/** Everything observable about every bank at one instant. */
struct BankState
{
    std::vector<std::vector<std::uint8_t>> bytes;
    std::vector<std::uint64_t> cycles;
    std::vector<std::array<std::uint64_t, kNumOpClasses>> ops;
    std::vector<std::uint64_t> dma;

    bool operator==(const BankState &) const = default;
};

BankState
snapshotBanks(const PimSystem &system)
{
    BankState state;
    for (std::size_t i = 0; i < system.numDpus(); ++i) {
        const Dpu &dpu = system.dpu(i);
        state.bytes.emplace_back(kBankSnapshotBytes);
        dpu.mramRead(0, state.bytes.back().data(), kBankSnapshotBytes);
        state.cycles.push_back(dpu.cycles());
        state.ops.push_back(dpu.opCounts());
        state.dma.push_back(dpu.dmaBytes());
    }
    return state;
}

/** Snapshots every bank right after each successful launch, before
 *  the session's gather and broadcast touch them. */
class BankRecorder : public swiftrl::pimsim::StreamObserver
{
  public:
    void
    onLaunch(swiftrl::pimsim::CommandStream &stream,
             const swiftrl::pimsim::LaunchStats &) override
    {
        launches.push_back(snapshotBanks(stream.system()));
    }

    std::vector<BankState> launches;
};

std::vector<BankState>
launchSnapshots(const Workload &w, const swiftrl::rlcore::Dataset &data,
                swiftrl::rlcore::StateId ns, swiftrl::rlcore::ActionId na,
                std::size_t shards, bool batch)
{
    PimConfig pim;
    pim.numDpus = 8;
    pim.hostThreads = 1;
    PimSystem system(pim);
    SessionConfig cfg;
    cfg.workload = w;
    cfg.hyper.episodes = 6;
    cfg.tau = 3;
    cfg.shards = shards;
    cfg.batchExec = batch;
    swiftrl::TrainerSession session(system, cfg);
    session.beginOffline(data, ns, na);
    BankRecorder recorder;
    session.stream().setObserver(&recorder);
    while (session.step()) {
    }
    session.stream().setObserver(nullptr);
    return recorder.launches;
}

TEST_F(BatchIdentity, EveryBankMatchesScalarAfterEachLaunch)
{
    // Enough transitions that every core reaches the goal reward, so
    // the Q regions compared are far from all-zero.
    const auto data = swiftrl::rlcore::collectRandomDataset(*_env, 8000, 7);
    for (const Workload &w : swiftrl::extendedWorkloads()) {
        SCOPED_TRACE(w.name());
        const auto scalar = launchSnapshots(
            w, data, _env->numStates(), _env->numActions(), 0, false);
        const auto batched = launchSnapshots(
            w, data, _env->numStates(), _env->numActions(), 0, true);
        ASSERT_EQ(scalar.size(), 2u);
        EXPECT_TRUE(batched == scalar);
        // Training wrote the Q regions compared: most banks hold a
        // non-zero table after the first launch, and the second
        // launch (from the broadcast average) moved them again.
        const std::size_t q_bytes = static_cast<std::size_t>(
            _env->numStates() * _env->numActions() * 4);
        std::size_t trained = 0;
        for (const auto &bank : scalar[0].bytes) {
            trained += std::any_of(bank.begin(), bank.begin() + q_bytes,
                                   [](std::uint8_t b) { return b != 0; });
        }
        EXPECT_GE(trained, scalar[0].bytes.size() / 2);
        EXPECT_FALSE(scalar[0].bytes == scalar[1].bytes);
    }
}

TEST_F(BatchIdentity, ShardedCohortMixingHaloAndHaloFreeLanes)
{
    // Four shards of one grid row each over 8 cores. Drop the goal
    // row's transitions that leave it, so that shard's two replicas
    // train halo-free (in place) on a table the goal reward fills,
    // while the other shards' lanes keep halo rows (staged).
    const auto ns = _env->numStates();
    const auto na = _env->numActions();
    const auto plan = swiftrl::makeShardPlan(ns, 4, 8);
    const std::size_t halo_free = plan.map.ownerOf(ns - 1);
    const auto source =
        swiftrl::rlcore::collectRandomDataset(*_env, 8000, 7);
    swiftrl::rlcore::Dataset data;
    std::array<bool, 4> crossing{};
    for (std::size_t k = 0; k < source.size(); ++k) {
        const auto s = source.states()[k];
        const auto s2 = source.nextStates()[k];
        const bool terminal = source.terminals()[k] != 0;
        const std::size_t shard = plan.map.ownerOf(s);
        const bool crosses = !terminal && plan.map.ownerOf(s2) != shard;
        if (shard == halo_free && crosses)
            continue;
        crossing[shard] = crossing[shard] || crosses;
        data.append({s, source.actions()[k], source.rewards()[k], s2,
                     terminal});
    }
    for (std::size_t shard = 0; shard < 4; ++shard)
        ASSERT_EQ(crossing[shard], shard != halo_free) << shard;

    for (const Workload &w :
         {Workload{swiftrl::rlcore::Algorithm::QLearning,
                   swiftrl::rlcore::Sampling::Seq, NumericFormat::Fp32},
          Workload{swiftrl::rlcore::Algorithm::Sarsa,
                   swiftrl::rlcore::Sampling::Str,
                   NumericFormat::Int32},
          Workload{swiftrl::rlcore::Algorithm::QLearning,
                   swiftrl::rlcore::Sampling::Ran,
                   NumericFormat::Int8}}) {
        SCOPED_TRACE(w.name());
        const auto scalar = launchSnapshots(w, data, ns, na, 4, false);
        const auto batched = launchSnapshots(w, data, ns, na, 4, true);
        ASSERT_EQ(scalar.size(), 2u);
        EXPECT_TRUE(batched == scalar);
        // The in-place lanes trained a non-zero slice.
        const std::size_t slice_bytes =
            plan.map.rowsPerShard() * static_cast<std::size_t>(na) * 4;
        for (const std::size_t core : plan.coresOfShard[halo_free]) {
            const auto &bank = scalar[0].bytes[core];
            EXPECT_TRUE(std::any_of(
                bank.begin(), bank.begin() + slice_bytes,
                [](std::uint8_t b) { return b != 0; }))
                << "core " << core;
        }
    }
}

TEST_F(BatchIdentity, FaultedLaunchChangesNoBankByte)
{
    // A transient fault at the launch site abandons the launch before
    // any lane runs: no in-place lane may have touched its bank.
    PimConfig pim;
    pim.numDpus = 4;
    pim.hostThreads = 1;
    pim.faultPlan.scheduled = {
        {FaultKind::TransientKernel, /*site=*/0, /*dpu=*/2}};
    PimSystem system(pim);
    swiftrl::pimsim::CommandStream stream(system);

    const std::size_t ns = _env->numStates();
    const std::size_t na = _env->numActions();
    std::vector<std::size_t> counts(4, 64);
    std::vector<std::uint32_t> lcg{1u, 2u, 3u, 4u};
    const auto payload = _data.packFp32(0, 64);
    stream.pushChunks(kDataOffset,
                      std::vector<std::span<const std::uint8_t>>(
                          4, std::span<const std::uint8_t>(payload)));
    // A non-zero Q region, so a stray write would show.
    std::vector<float> q(ns * na);
    for (std::size_t e = 0; e < q.size(); ++e)
        q[e] = 0.25f * static_cast<float>(e % 7);
    stream.pushBroadcast(
        0, {reinterpret_cast<const std::uint8_t *>(q.data()),
            q.size() * sizeof(float)});

    KernelParams p;
    p.numStates = static_cast<swiftrl::rlcore::StateId>(ns);
    p.numActions = static_cast<swiftrl::rlcore::ActionId>(na);
    p.dataOffset = kDataOffset;
    p.episodes = 3;
    p.chunkCounts = &counts;
    p.lcgStates = &lcg;
    int runs = 0;
    const swiftrl::pimsim::BatchKernelFn kernel =
        [&](BatchKernelContext &bctx) {
            ++runs;
            swiftrl::runTrainingKernelBatch(bctx, p);
        };

    const BankState before = snapshotBanks(system);
    const auto faulted = stream.launchBatch(kernel);
    ASSERT_TRUE(faulted.error.has_value());
    EXPECT_EQ(faulted.error->kind, FaultKind::TransientKernel);
    EXPECT_EQ(runs, 0);
    EXPECT_TRUE(snapshotBanks(system) == before);
    EXPECT_EQ(lcg, (std::vector<std::uint32_t>{1u, 2u, 3u, 4u}));

    // The retry at the next site trains, in place.
    ASSERT_FALSE(stream.launchBatch(kernel).error.has_value());
    EXPECT_GT(runs, 0);
    EXPECT_FALSE(snapshotBanks(system).bytes == before.bytes);
}

// --- lane-mask unit tests ---------------------------------------------

/** Per-core observables of a direct kernel run. */
struct CoreResult
{
    swiftrl::pimsim::Cycles cycles = 0;
    std::array<std::uint64_t, kNumOpClasses> opCounts{};
    std::uint64_t dmaBytes = 0;
    std::vector<std::uint8_t> qBytes;
    std::uint32_t lcg = 0;
};

class LaneMasks : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        _env = swiftrl::rlenv::makeEnvironment("frozenlake");
        _data = swiftrl::rlcore::collectRandomDataset(*_env, 256, 11);
        _ns = _env->numStates();
        _na = _env->numActions();
    }

    /** Write each core's chunk and return the common params. */
    KernelParams
    setupCores(const Workload &w, std::vector<Dpu> &dpus,
               std::vector<std::size_t> &counts,
               std::vector<std::uint32_t> &lcg)
    {
        for (std::size_t i = 0; i < dpus.size(); ++i) {
            const std::size_t n = counts[i];
            const auto payload = w.format == NumericFormat::Fp32
                                     ? _data.packFp32(0, n)
                                     : _data.packInt32(0, n, 10'000);
            if (!payload.empty())
                dpus[i].mramWrite(kDataOffset, payload.data(),
                                  payload.size());
        }
        KernelParams p;
        p.workload = w;
        p.hyper.episodes = 3;
        p.numStates = _ns;
        p.numActions = _na;
        p.qOffset = 0;
        p.dataOffset = kDataOffset;
        p.episodes = p.hyper.episodes;
        p.chunkCounts = &counts;
        p.lcgStates = &lcg;
        return p;
    }

    CoreResult
    observe(Dpu &dpu, std::uint32_t lcg_state)
    {
        CoreResult r;
        r.cycles = dpu.cycles();
        r.opCounts = dpu.opCounts();
        r.dmaBytes = dpu.dmaBytes();
        const std::size_t q_bytes = static_cast<std::size_t>(_ns) *
                                    static_cast<std::size_t>(_na) * 4;
        r.qBytes.resize(q_bytes);
        dpu.mramRead(0, r.qBytes.data(), q_bytes);
        r.lcg = lcg_state;
        return r;
    }

    std::unique_ptr<swiftrl::rlenv::Environment> _env;
    swiftrl::rlcore::Dataset _data;
    swiftrl::rlcore::StateId _ns = 0;
    swiftrl::rlcore::ActionId _na = 0;
};

TEST_F(LaneMasks, DivergentChunkLengthsMatchScalarPerLane)
{
    // Four lanes with wildly different chunk lengths, including an
    // empty one: the step loop must mask each lane off at its own
    // count (and charge the empty lane nothing at all), retiring
    // exactly the scalar per-core result on every lane.
    const DpuCostModel model;
    for (const auto sampling : {swiftrl::rlcore::Sampling::Seq,
                                swiftrl::rlcore::Sampling::Ran}) {
        Workload w;
        w.sampling = sampling;
        SCOPED_TRACE(w.name());
        std::vector<std::size_t> counts{0, 1, 37, 128};

        std::vector<Dpu> batch_dpus, scalar_dpus;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            batch_dpus.emplace_back(i, 8u << 20);
            scalar_dpus.emplace_back(i, 8u << 20);
        }
        std::vector<std::uint32_t> batch_lcg, scalar_lcg;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            batch_lcg.push_back(
                swiftrl::rlcore::deriveLcgSeed(1, i));
            scalar_lcg.push_back(batch_lcg.back());
        }

        // Cycles live in the kernel contexts (the launch engine, not
        // flush, is what advances Dpu clocks), so capture them there.
        std::vector<swiftrl::pimsim::Cycles> batch_cycles, scalar_cycles;

        auto bp = setupCores(w, batch_dpus, counts, batch_lcg);
        {
            std::vector<Dpu *> lanes;
            for (auto &d : batch_dpus)
                lanes.push_back(&d);
            BatchKernelContext bctx(lanes, model, 64 * 1024);
            swiftrl::runTrainingKernelBatch(bctx, bp);
            bctx.flushAll();
            for (std::size_t i = 0; i < counts.size(); ++i)
                batch_cycles.push_back(bctx.lane(i).cycles());
        }

        auto sp = setupCores(w, scalar_dpus, counts, scalar_lcg);
        for (auto &dpu : scalar_dpus) {
            KernelContext ctx(dpu, model, 64 * 1024);
            swiftrl::runTrainingKernel(ctx, sp);
            ctx.flush();
            scalar_cycles.push_back(ctx.cycles());
        }

        for (std::size_t i = 0; i < counts.size(); ++i) {
            SCOPED_TRACE("lane " + std::to_string(i));
            EXPECT_EQ(batch_cycles[i], scalar_cycles[i]);
            const auto b = observe(batch_dpus[i], batch_lcg[i]);
            const auto s = observe(scalar_dpus[i], scalar_lcg[i]);
            EXPECT_EQ(b.opCounts, s.opCounts);
            EXPECT_EQ(b.dmaBytes, s.dmaBytes);
            EXPECT_EQ(b.qBytes, s.qBytes);
            EXPECT_EQ(b.lcg, s.lcg);
        }
        // Real work ran on the populated lanes...
        EXPECT_GT(scalar_cycles[1], 0u);
        EXPECT_GT(scalar_cycles[3], 0u);
        // ...while the empty lane really is dead weight: nothing
        // charged.
        EXPECT_EQ(batch_cycles[0], 0u);
        EXPECT_EQ(batch_dpus[0].dmaBytes(), 0u);
    }
}

TEST_F(LaneMasks, CoresOutsideTheCohortAreUntouched)
{
    // A cohort of lanes {0, 2}: core 1 (e.g. a dead core the launch
    // engine excluded) must see no charges, no DMA, no MRAM writes.
    const DpuCostModel model;
    Workload w;
    std::vector<std::size_t> counts{64, 64, 64};
    std::vector<Dpu> dpus;
    for (std::size_t i = 0; i < counts.size(); ++i)
        dpus.emplace_back(i, 8u << 20);
    std::vector<std::uint32_t> lcg{1u, 2u, 3u};

    auto p = setupCores(w, dpus, counts, lcg);
    {
        std::vector<Dpu *> lanes{&dpus[0], &dpus[2]};
        BatchKernelContext bctx(lanes, model, 64 * 1024);
        EXPECT_EQ(bctx.lanes(), 2u);
        EXPECT_EQ(bctx.dpuId(0), 0u);
        EXPECT_EQ(bctx.dpuId(1), 2u);
        swiftrl::runTrainingKernelBatch(bctx, p);
        bctx.flushAll();
        EXPECT_GT(bctx.lane(0).cycles(), 0u);
        EXPECT_GT(bctx.lane(1).cycles(), 0u);
    }

    EXPECT_GT(dpus[0].dmaBytes(), 0u);
    EXPECT_GT(dpus[2].dmaBytes(), 0u);
    EXPECT_EQ(dpus[1].cycles(), 0u);
    EXPECT_EQ(dpus[1].dmaBytes(), 0u);
    EXPECT_EQ(dpus[1].opCounts(),
              (std::array<std::uint64_t, kNumOpClasses>{}));
    EXPECT_EQ(lcg[1], 2u); // LCG stream of the masked core untouched
}

} // namespace
