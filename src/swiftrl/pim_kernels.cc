#include "swiftrl/pim_kernels.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/fixed_point.hh"
#include "common/logging.hh"
#include "rlcore/dataset.hh"
#include "rlcore/sampling.hh"
#include "rlcore/update_rules.hh"

namespace swiftrl {

namespace {

using rlcore::ActionId;
using rlcore::PackedTransition;
using rlcore::StateId;

/**
 * Experience fetcher. SEQ and STR kernels stream aligned blocks of
 * records through a WRAM staging buffer (one DMA per block); RAN
 * kernels issue one small DMA per record, since consecutive draws land
 * in unrelated MRAM rows — the access pattern PIM tolerates and caches
 * do not. The staging buffer lives in the context's scratch arena, so
 * it is recycled across launches instead of heap-allocated per core
 * per generation.
 */
template <typename Ctx>
class TransitionFetcher
{
  public:
    TransitionFetcher(Ctx &ctx, std::size_t data_offset,
                      std::size_t count, std::size_t block_transitions,
                      bool block_mode)
        : _ctx(ctx), _dataOffset(data_offset), _count(count),
          _blockTransitions(block_transitions), _blockMode(block_mode)
    {
        SWIFTRL_ASSERT(_blockTransitions > 0, "empty staging block");
        if (_blockMode) {
            _buffer = ctx.scratch().template alloc<PackedTransition>(
                _blockTransitions);
        }
    }

    /** Fetch record @p idx, charging its DMA and WRAM traffic. */
    PackedTransition
    fetch(std::size_t idx)
    {
        SWIFTRL_ASSERT(idx < _count, "record index out of chunk");
        PackedTransition rec;
        if (_blockMode) {
            if (idx < _blockStart ||
                idx >= _blockStart + _blockLen) {
                loadBlock(idx);
            }
            rec = _buffer[idx - _blockStart];
            // Buffer indexing: offset computation on the core.
            _ctx.aluOps(2);
        } else {
            _ctx.mramToWram(_dataOffset + idx * kTransitionBytes, &rec,
                            kTransitionBytes);
        }
        // The update reads all four record words from WRAM.
        _ctx.aluOps(4);
        return rec;
    }

  private:
    void
    loadBlock(std::size_t idx)
    {
        const std::size_t start =
            idx / _blockTransitions * _blockTransitions;
        _blockLen = std::min(_blockTransitions, _count - start);
        _ctx.mramToWram(_dataOffset + start * kTransitionBytes,
                        _buffer, _blockLen * kTransitionBytes);
        _blockStart = start;
    }

    Ctx &_ctx;
    std::size_t _dataOffset;
    std::size_t _count;
    std::size_t _blockTransitions;
    bool _blockMode;
    PackedTransition *_buffer = nullptr;
    std::size_t _blockStart = std::numeric_limits<std::size_t>::max();
    std::size_t _blockLen = 0;
};

/** Unpacked record fields common to both formats. */
struct RecordFields
{
    StateId s;
    ActionId a;
    std::int32_t rewardBits;
    StateId s2;
    bool terminal;
};

template <typename Ctx>
RecordFields
decodeRecord(Ctx &ctx, const PackedTransition &rec)
{
    RecordFields f;
    f.s = rec.state;
    f.a = rec.action;
    f.rewardBits = rec.rewardBits;
    // Terminal flag unmasking: an AND and a shift.
    ctx.aluOps(2);
    f.s2 = static_cast<StateId>(rec.nextStateBits &
                                ~PackedTransition::kTerminalBit);
    f.terminal =
        (rec.nextStateBits & PackedTransition::kTerminalBit) != 0;
    return f;
}

/** Single-tasklet training loop (the paper's configuration). */
template <typename Ctx, typename QWord, typename UpdateFn>
void
trainCoreSingleTasklet(Ctx &ctx, const KernelParams &p,
                       std::size_t count, QWord *q, UpdateFn &&update)
{
    const std::size_t core = ctx.dpuId();
    const bool block_mode =
        p.workload.sampling != rlcore::Sampling::Ran;
    ctx.wramAlloc(block_mode
                      ? p.blockTransitions * kTransitionBytes
                      : kTransitionBytes);

    ctx.lcgSeed((*p.lcgStates)[core]);

    rlcore::SampleWalker walker(
        count, p.workload.sampling,
        static_cast<std::size_t>(p.hyper.stride));
    TransitionFetcher<Ctx> fetcher(ctx, p.dataOffset, count,
                                   p.blockTransitions, block_mode);

    for (int ep = 0; ep < p.episodes; ++ep) {
        walker.startEpisode();
        ctx.branch();
        for (std::size_t k = 0; k < count; ++k) {
            const std::size_t idx =
                walker.next([&](std::size_t bound) {
                    return static_cast<std::size_t>(
                        ctx.lcgNextBounded(
                            static_cast<std::uint32_t>(bound)));
                });
            // Walker bookkeeping + loop counter + record address
            // computation (idx * 16 as a shift).
            ctx.aluOps(3);
            ctx.branch();

            const PackedTransition rec = fetcher.fetch(idx);
            const RecordFields f = decodeRecord(ctx, rec);
            update(ctx, q, f);
        }
    }

    (*p.lcgStates)[core] = ctx.lcgState();
}

/**
 * Multi-tasklet training loop (the paper's future work): the chunk is
 * split into near-equal contiguous sub-chunks, one per tasklet; each
 * tasklet walks its own sub-chunk in the workload's sampling order
 * with its own persistent LCG stream and staging buffer, and all
 * tasklets update the core's shared WRAM Q-table. Execution
 * interleaves round-robin, one update per tasklet per turn, matching
 * the pipeline's fine-grained multithreading order.
 */
template <typename Ctx, typename QWord, typename UpdateFn>
void
trainCoreMultiTasklet(Ctx &ctx, const KernelParams &p,
                      std::size_t count, QWord *q, UpdateFn &&update)
{
    const std::size_t core = ctx.dpuId();
    const unsigned t = p.tasklets;
    SWIFTRL_ASSERT(p.lcgStates->size() >=
                       (core + 1) * static_cast<std::size_t>(t),
                   "LCG state table too small for ", t,
                   " tasklets on core ", core);
    const bool block_mode =
        p.workload.sampling != rlcore::Sampling::Ran;

    // Sub-chunk split; tasklets beyond the chunk size stay idle.
    std::vector<std::size_t> sub_first(t, 0), sub_count(t, 0);
    {
        const std::size_t base = count / t;
        const std::size_t extra = count % t;
        std::size_t at = 0;
        for (unsigned tl = 0; tl < t; ++tl) {
            sub_first[tl] = at;
            sub_count[tl] = base + (tl < extra ? 1 : 0);
            at += sub_count[tl];
        }
    }

    std::vector<std::unique_ptr<rlcore::SampleWalker>> walkers(t);
    std::vector<std::unique_ptr<TransitionFetcher<Ctx>>> fetchers(t);
    std::vector<std::uint32_t> lcg(t);
    std::size_t longest = 0;
    for (unsigned tl = 0; tl < t; ++tl) {
        lcg[tl] = (*p.lcgStates)[core * t + tl];
        if (sub_count[tl] == 0)
            continue;
        // Each tasklet owns a staging buffer in the shared WRAM.
        ctx.wramAlloc(block_mode
                          ? p.blockTransitions * kTransitionBytes
                          : kTransitionBytes);
        walkers[tl] = std::make_unique<rlcore::SampleWalker>(
            sub_count[tl], p.workload.sampling,
            static_cast<std::size_t>(p.hyper.stride));
        fetchers[tl] = std::make_unique<TransitionFetcher<Ctx>>(
            ctx, p.dataOffset, count, p.blockTransitions,
            block_mode);
        longest = std::max(longest, sub_count[tl]);
    }

    for (int ep = 0; ep < p.episodes; ++ep) {
        for (unsigned tl = 0; tl < t; ++tl) {
            if (walkers[tl])
                walkers[tl]->startEpisode();
        }
        ctx.branch();
        for (std::size_t k = 0; k < longest; ++k) {
            for (unsigned tl = 0; tl < t; ++tl) {
                if (k >= sub_count[tl])
                    continue;
                // Swap in this tasklet's LCG stream.
                ctx.lcgSeed(lcg[tl]);
                const std::size_t idx =
                    walkers[tl]->next([&](std::size_t bound) {
                        return static_cast<std::size_t>(
                            ctx.lcgNextBounded(
                                static_cast<std::uint32_t>(bound)));
                    });
                ctx.aluOps(3);
                ctx.branch();

                const PackedTransition rec =
                    fetchers[tl]->fetch(sub_first[tl] + idx);
                const RecordFields f = decodeRecord(ctx, rec);
                update(ctx, q, f);
                lcg[tl] = ctx.lcgState();
            }
        }
    }

    for (unsigned tl = 0; tl < t; ++tl)
        (*p.lcgStates)[core * t + tl] = lcg[tl];
}

/** Shared training kernel body, templated on the Q-word type. */
template <typename QWord, typename Ctx, typename UpdateFn>
void
trainCore(Ctx &ctx, const KernelParams &p, UpdateFn &&update)
{
    const std::size_t core = ctx.dpuId();
    SWIFTRL_ASSERT(p.chunkCounts && core < p.chunkCounts->size(),
                   "missing chunk table for core ", core);
    SWIFTRL_ASSERT(p.lcgStates && core < p.lcgStates->size(),
                   "missing LCG state for core ", core);
    SWIFTRL_ASSERT(p.tasklets >= 1, "at least one tasklet required");
    const std::size_t count = (*p.chunkCounts)[core];
    if (count == 0 || p.episodes <= 0)
        return;

    const bool sharded = p.sliceRows > 0;
    SWIFTRL_ASSERT(!sharded || !p.trackVisits,
                   "visit tracking is incompatible with sharded "
                   "Q-tables");
    SWIFTRL_ASSERT(!sharded ||
                       (p.haloRows && core < p.haloRows->size()),
                   "missing halo table for core ", core);
    // In sharded mode the WRAM table is [owned slice | halo rows]:
    // the slice is read-write and DMA'd back, the halo is a
    // read-only snapshot of remote next-state rows, refreshed by the
    // host each sync round. Record state ids arrive pre-localised to
    // this layout, so the update rules below are oblivious to it.
    const std::size_t own_rows =
        sharded ? p.sliceRows : static_cast<std::size_t>(p.numStates);
    const std::size_t halo_rows =
        sharded ? (*p.haloRows)[core] : 0;
    const std::size_t na = static_cast<std::size_t>(p.numActions);
    const std::size_t own_entries = own_rows * na;
    const std::size_t q_entries = (own_rows + halo_rows) * na;
    const std::size_t own_bytes = own_entries * sizeof(QWord);
    pimsim::KernelScratch &scratch = ctx.scratch();

    // Shared WRAM Q-table, DMA'd in at entry and out at exit. The
    // host image lives in the launch's scratch arena; the inbound
    // DMA overwrites every entry.
    ctx.wramAlloc(q_entries * sizeof(QWord));
    QWord *q = scratch.template alloc<QWord>(q_entries);
    ctx.mramToWram(p.qOffset, q, own_bytes);
    if (halo_rows > 0) {
        ctx.mramToWram(p.haloOffset, q + own_entries,
                       halo_rows * na * sizeof(QWord));
    }

    // Optional visit counters for weighted aggregation: zeroed each
    // launch (weights reflect the current round's coverage).
    std::uint32_t *visits = nullptr;
    if (p.trackVisits) {
        ctx.wramAlloc(q_entries * sizeof(std::uint32_t));
        visits = scratch.template alloc<std::uint32_t>(q_entries);
        std::fill_n(visits, q_entries, 0u);
    }
    auto counted_update = [&](Ctx &c, QWord *table,
                              const RecordFields &f) {
        update(c, table, f);
        if (p.trackVisits) {
            // Increment: one address computation + load-modify-store.
            c.aluOps(2);
            ++visits[static_cast<std::size_t>(f.s) *
                         static_cast<std::size_t>(p.numActions) +
                     static_cast<std::size_t>(f.a)];
        }
    };

    if (p.tasklets == 1) {
        trainCoreSingleTasklet(ctx, p, count, q, counted_update);
    } else {
        trainCoreMultiTasklet(ctx, p, count, q, counted_update);
    }

    // Only the owned slice is written back; halo rows are a stale
    // read-only snapshot the host refreshes from the aggregate.
    ctx.wramToMram(p.qOffset, q, own_bytes);
    if (p.trackVisits) {
        ctx.wramToMram(p.visitsOffset, visits,
                       q_entries * sizeof(std::uint32_t));
    }
}

// --- batch interpreter ------------------------------------------------
//
// The scalar engine interprets the kernel once per core, charging each
// priced op as it executes — ~30 ledger increments per Q-update. The
// batch interpreter exploits that every core of a cohort runs the
// *same* kernel: it executes the update rules functionally through a
// cost-free ops provider (LaneOps) and retires the charges wholesale,
// as per-lane tallies of control-flow *shapes* multiplied by
// probe-calibrated per-shape charge profiles. This is exact, not
// approximate: an update's charge sequence is fully determined by its
// shape — terminal (no bootstrap scan), SARSA explore (two extra LCG
// draws), or the main path — because the bootstrap scans have fixed
// trip count (num_actions) and charge identically on either branch
// outcome. See docs/PERFORMANCE.md, "Batch interpretation".

/** Update-charge shapes. One tally per lane per shape. */
enum : std::size_t
{
    /** Terminal record: no bootstrap. */
    kShapeTerminal = 0,
    /** Non-terminal main path (Q-learning max / SARSA exploit). */
    kShapeMain = 1,
    /** SARSA non-terminal explore: epsilon branch taken. */
    kShapeExplore = 2,
    kNumShapes = 3
};

/** Op-class charge counts of one update shape. */
using ShapeProfile = std::array<std::uint64_t, pimsim::kNumOpClasses>;

/**
 * Functional ops provider for batch lanes: computes like HostOps —
 * bit-identical to KernelContext by construction — while counting LCG
 * draws (to classify the SARSA shape) and replicating KernelContext's
 * operand-range assertions, so a batch run dies on exactly the inputs
 * a scalar run would (e.g. INT8 range violations).
 */
struct LaneOps : rlcore::HostOps
{
    /** LCG draws made by the current update; reset per record. */
    unsigned draws = 0;

    std::uint32_t
    lcgNextBounded(std::uint32_t bound)
    {
        SWIFTRL_ASSERT(bound > 0,
                       "lcgNextBounded requires a positive bound");
        ++draws;
        return rlcore::HostOps::lcgNextBounded(bound);
    }

    std::int32_t
    rescale(std::int64_t value, std::int32_t scale)
    {
        SWIFTRL_ASSERT(scale != 0, "rescale by zero");
        return rlcore::HostOps::rescale(value, scale);
    }

    std::int64_t
    imulSmall(std::int32_t a, std::int32_t b)
    {
        SWIFTRL_ASSERT(a >= -32768 && a <= 32767,
                       "imulSmall wide operand ", a,
                       " exceeds 16 bits: the environment's value "
                       "range does not fit the INT8 optimisation");
        SWIFTRL_ASSERT(b >= -128 && b <= 127,
                       "imulSmall narrow operand ", b,
                       " exceeds 8 bits");
        return rlcore::HostOps::imulSmall(a, b);
    }

    std::int32_t
    rescaleShift(std::int64_t value, int shift)
    {
        SWIFTRL_ASSERT(shift >= 0 && shift < 31, "bad shift ", shift);
        return rlcore::HostOps::rescaleShift(value, shift);
    }
};

/**
 * LaneOps for the INT32 rules at a compile-time scale: both rescales
 * of an update divide by @p Scale, which the compiler lowers to a
 * multiply and shifts with the same truncated quotient as
 * HostOps::rescale. runTrainingKernelBatch picks it for
 * common::kDefaultScale, the only scale it is instantiated for.
 */
template <std::int32_t Scale>
struct LaneOpsScale : LaneOps
{
    std::int32_t
    rescale(std::int64_t value, std::int32_t)
    {
        return static_cast<std::int32_t>(value / Scale);
    }
};

/**
 * Counting ops provider used to calibrate shape profiles: records the
 * exact charge KernelContext makes for each priced helper (the
 * mapping below mirrors pimsim/kernel_context.hh line for line) while
 * computing functionally via HostOps. LCG draws return scripted
 * values so the probe can steer the SARSA epsilon branch.
 */
class ShapeProbe
{
  public:
    ShapeProfile counts{};

    void
    script(std::initializer_list<std::uint32_t> draws)
    {
        _scripted.assign(draws);
        _at = 0;
    }

    float fadd(float a, float b) { add(Fp32Add); return _f.fadd(a, b); }
    float fsub(float a, float b) { add(Fp32Add); return _f.fsub(a, b); }
    float fmul(float a, float b) { add(Fp32Mul); return _f.fmul(a, b); }
    bool fgt(float a, float b) { add(Fp32Cmp); return _f.fgt(a, b); }

    std::int32_t
    iadd(std::int32_t a, std::int32_t b)
    {
        add(IntAlu);
        return _f.iadd(a, b);
    }

    std::int32_t
    isub(std::int32_t a, std::int32_t b)
    {
        add(IntAlu);
        return _f.isub(a, b);
    }

    std::int64_t
    imul32(std::int32_t a, std::int32_t b)
    {
        add(Int32Mul);
        return _f.imul32(a, b);
    }

    std::int32_t
    rescale(std::int64_t value, std::int32_t scale)
    {
        add(Int32Mul);
        add(IntAlu, 2);
        return _f.rescale(value, scale);
    }

    std::int64_t
    imulSmall(std::int32_t a, std::int32_t b)
    {
        add(Int8Mul, 2);
        add(IntAlu, 2);
        return _f.imulSmall(a, b);
    }

    std::int32_t
    rescaleShift(std::int64_t value, int shift)
    {
        add(IntAlu);
        return _f.rescaleShift(value, shift);
    }

    bool igt(std::int32_t a, std::int32_t b) { add(IntAlu); return _f.igt(a, b); }

    float wramLoadF32(const float &slot) { add(WramAccess); return slot; }
    void wramStoreF32(float &slot, float v) { add(WramAccess); slot = v; }
    std::int32_t wramLoadI32(const std::int32_t &slot) { add(WramAccess); return slot; }
    void wramStoreI32(std::int32_t &slot, std::int32_t v) { add(WramAccess); slot = v; }

    void aluOps(std::uint64_t n) { add(IntAlu, n); }
    void branch(std::uint64_t n = 1) { add(Branch, n); }

    /** Scripted draw; charges exactly like the real helper. */
    std::uint32_t
    lcgNextBounded(std::uint32_t)
    {
        // lcgNext (Int32Mul + IntAlu) plus the high-bits reduction
        // (Int32Mul + IntAlu).
        add(Int32Mul, 2);
        add(IntAlu, 2);
        const std::uint32_t v =
            _at < _scripted.size() ? _scripted[_at] : 0u;
        ++_at;
        return v;
    }

  private:
    using enum pimsim::OpClass;

    void
    add(pimsim::OpClass op, std::uint64_t n = 1)
    {
        counts[static_cast<std::size_t>(op)] += n;
    }

    rlcore::HostOps _f;
    std::vector<std::uint32_t> _scripted;
    std::size_t _at = 0;
};

/**
 * Measure the charge profile of each shape by running the real update
 * template against a dummy zeroed two-row table (operands s=0, a=0,
 * r=0, s2 in row 1 for the bootstrap scan — zero values satisfy every
 * operand-range assertion). Exact because the profile depends only on
 * the shape and num_actions, never on table values.
 */
template <typename QWord, typename UpdateFn>
std::array<ShapeProfile, kNumShapes>
calibrateShapes(const KernelParams &p, bool sarsa,
                std::int32_t epsilon_milli, UpdateFn &&update)
{
    const std::size_t na = static_cast<std::size_t>(p.numActions);
    std::vector<QWord> table(2 * na);
    std::array<ShapeProfile, kNumShapes> out{};

    auto run = [&](std::size_t shape, bool terminal,
                   std::initializer_list<std::uint32_t> draws) {
        ShapeProbe probe;
        probe.script(draws);
        std::fill(table.begin(), table.end(), QWord{});
        RecordFields f;
        f.s = 0;
        f.a = 0;
        f.rewardBits = 0;
        f.s2 = terminal ? 0 : 1;
        f.terminal = terminal;
        update(probe, table.data(), f);
        out[shape] = probe.counts;
    };

    run(kShapeTerminal, true, {});
    // Main path: script the epsilon draw to epsilon_milli, which
    // fails `draw < epsilon_milli` and takes the exploit/argmax
    // branch (Q-learning ignores the script — it draws nothing).
    run(kShapeMain, false,
        {static_cast<std::uint32_t>(epsilon_milli)});
    if (sarsa) {
        // Explore path: a zero draw takes the epsilon branch whenever
        // epsilon_milli > 0. With epsilon_milli <= 0 the branch is
        // unreachable in real runs too, so the (then mismeasured)
        // profile is never multiplied by a non-zero tally.
        run(kShapeExplore, false, {0u, 0u});
    }
    return out;
}

/**
 * Lockstep batch training body: one pass retires every lane of the
 * cohort chunk. Structure-of-arrays per-lane state (walker, LCG, Q
 * image, block window, shape tallies); lanes retire lane-major, with
 * divergent chunk lengths handled by each lane's own step bound and
 * dead cores already excluded from the cohort by
 * CommandStream::launchBatch. @p Ops picks the functional provider
 * (LaneOps, or LaneOpsScale for the INT32 rules at the default scale).
 */
template <typename QWord, typename Ops, typename UpdateFn>
void
trainBatch(pimsim::BatchKernelContext &bctx, const KernelParams &p,
           bool sarsa, std::int32_t epsilon_milli, UpdateFn &&update)
{
    SWIFTRL_ASSERT(p.tasklets == 1,
                   "batch interpretation is single-tasklet");
    SWIFTRL_ASSERT(!p.trackVisits,
                   "batch interpretation does not track visits");
    const bool block_mode =
        p.workload.sampling != rlcore::Sampling::Ran;
    const bool sharded = p.sliceRows > 0;
    const std::size_t na = static_cast<std::size_t>(p.numActions);
    const std::size_t never = std::numeric_limits<std::size_t>::max();

    const auto shapes =
        calibrateShapes<QWord>(p, sarsa, epsilon_milli, update);

    // Per-lane SoA state over the *active* lanes. A scalar kernel
    // instance with an empty chunk or a non-positive episode budget
    // returns before charging anything, so such lanes are excluded
    // here entirely.
    std::vector<std::size_t> lane;      ///< index into bctx
    std::vector<std::size_t> count;     ///< chunk length
    std::vector<std::size_t> ownBytes;  ///< writeback size
    std::vector<bool> inPlace;          ///< Q image is the bank's
    std::vector<QWord *> qPtr;          ///< Q image
    std::vector<const std::uint8_t *> data; ///< MRAM transition view
    std::vector<rlcore::SampleWalker> walker;
    std::vector<Ops> ops;
    std::vector<std::array<std::uint64_t, kNumShapes>> tally;

    const std::size_t cohort = bctx.lanes();
    for (std::size_t i = 0; i < cohort; ++i) {
        pimsim::KernelContext &ctx = bctx.lane(i);
        const std::size_t core = ctx.dpuId();
        SWIFTRL_ASSERT(p.chunkCounts && core < p.chunkCounts->size(),
                       "missing chunk table for core ", core);
        SWIFTRL_ASSERT(p.lcgStates && core < p.lcgStates->size(),
                       "missing LCG state for core ", core);
        const std::size_t n = (*p.chunkCounts)[core];
        if (n == 0 || p.episodes <= 0)
            continue;
        SWIFTRL_ASSERT(!sharded ||
                           (p.haloRows && core < p.haloRows->size()),
                       "missing halo table for core ", core);

        // Mirror the scalar per-core preamble charge for charge:
        // Q-table WRAM footprint and inbound DMA (trainCore), then
        // the staging-buffer footprint and LCG seed
        // (trainCoreSingleTasklet).
        const std::size_t own_rows =
            sharded ? p.sliceRows
                    : static_cast<std::size_t>(p.numStates);
        const std::size_t halo_rows =
            sharded ? (*p.haloRows)[core] : 0;
        const std::size_t own_entries = own_rows * na;
        const std::size_t q_entries = (own_rows + halo_rows) * na;
        const std::size_t own_bytes = own_entries * sizeof(QWord);

        // The Q image. A halo-free lane trains in place on its
        // bank's Q region: the inbound and outbound DMA are charged
        // with chargeDmaSpan (the same 2,048-byte split and padding
        // as mramToWram / wramToMram), so cycles, op counts and DMA
        // bytes match the staged copy bit for bit. A halo lane's
        // image spans two MRAM regions (slice | halo), so it keeps
        // the staged copy in the scratch arena. The views below
        // stay valid for the whole launch because
        //  - launchFaultCheck runs before any lane executes, so a
        //    faulted launch never reaches here and commits nothing;
        //  - lanes own disjoint banks, so no other lane touches
        //    this bank;
        //  - nothing writes MRAM through Dpu::mramWrite during the
        //    launch (a halo lane's wramToMram lands inside the bank
        //    sized here), so the bank never grows and never moves.
        // Hence the bank is sized first and both views taken after.
        pimsim::Dpu &bank = bctx.dpu(i);
        bank.mramReserve(std::max(p.qOffset + own_bytes,
                                  p.dataOffset + n * kTransitionBytes));
        const bool staged = halo_rows > 0;
        ctx.wramAlloc(q_entries * sizeof(QWord));
        QWord *q;
        if (staged) {
            q = bctx.scratch().template alloc<QWord>(q_entries);
            ctx.mramToWram(p.qOffset, q, own_bytes);
            ctx.mramToWram(p.haloOffset, q + own_entries,
                           halo_rows * na * sizeof(QWord));
        } else {
            std::uint8_t *region =
                bank.mramViewMutable(p.qOffset, own_bytes);
            SWIFTRL_ASSERT(reinterpret_cast<std::uintptr_t>(region) %
                                   alignof(QWord) ==
                               0,
                           "misaligned MRAM Q region on core ", core);
            q = reinterpret_cast<QWord *>(region);
            ctx.chargeDmaSpan(own_bytes);
        }
        ctx.wramAlloc(block_mode
                          ? p.blockTransitions * kTransitionBytes
                          : kTransitionBytes);
        const std::uint32_t seed = (*p.lcgStates)[core];
        ctx.lcgSeed(seed);

        lane.push_back(i);
        count.push_back(n);
        ownBytes.push_back(own_bytes);
        inPlace.push_back(!staged);
        qPtr.push_back(q);
        // Transitions are read straight from the MRAM view; the
        // region is read-only for the whole launch, so the bytes
        // match what per-record DMA would copy.
        data.push_back(
            bank.mramView(p.dataOffset, n * kTransitionBytes));
        walker.emplace_back(n, p.workload.sampling,
                            static_cast<std::size_t>(p.hyper.stride));
        Ops o;
        o.lcg.seed(seed);
        ops.push_back(o);
        tally.push_back({});
    }

    const std::size_t nlanes = lane.size();
    if (nlanes == 0)
        return;

    // The cohort retires lane-major: every lane runs its full episode
    // budget before the next lane starts. Lanes are independent (own
    // Q slice, own walker, own LCG stream) and charges are integer
    // sums, so any retirement order is bit-identical to the scalar
    // interleaving — and lane-major keeps one lane's Q image and
    // decoded chunk hot in cache instead of cycling the whole chunk's
    // working set per step. Divergent chunk lengths need no masking
    // in this order: each lane's step loop is simply its own length.
    std::vector<RecordFields> recs;
    std::vector<std::uint32_t> order; // STR visit order, per lane
    for (std::size_t i = 0; i < nlanes; ++i) {
        // Decode the lane's chunk once: the record stream is
        // read-only for the whole launch, so the per-step fetch
        // reduces to an indexed load. (The scalar engine re-decodes
        // every visit; decode is unpriced interpreter work, so this
        // moves no modelled number.)
        const std::size_t n = count[i];
        recs.resize(n);
        std::size_t terminal_records = 0;
        for (std::size_t r = 0; r < n; ++r) {
            PackedTransition rec;
            std::memcpy(&rec, data[i] + r * kTransitionBytes,
                        kTransitionBytes);
            RecordFields &f = recs[r];
            f.s = rec.state;
            f.a = rec.action;
            f.rewardBits = rec.rewardBits;
            f.s2 = static_cast<StateId>(
                rec.nextStateBits & ~PackedTransition::kTerminalBit);
            f.terminal = (rec.nextStateBits &
                          PackedTransition::kTerminalBit) != 0;
            terminal_records += f.terminal ? 1 : 0;
        }

        Ops &o = ops[i];
        QWord *const q = qPtr[i];
        auto &t = tally[i];
        pimsim::KernelContext &ctx = bctx.lane(lane[i]);
        const auto eps = static_cast<std::uint64_t>(p.episodes);

        if (block_mode) {
            // SEQ and STR visit every index exactly once per episode
            // in an episode-invariant order (SampleWalker rewinds at
            // startEpisode). Materialise the order once — SEQ is the
            // identity and skips the table entirely.
            const bool seq =
                p.workload.sampling == rlcore::Sampling::Seq;
            if (!seq) {
                order.resize(n);
                rlcore::SampleWalker &w = walker[i];
                w.startEpisode();
                for (std::size_t k = 0; k < n; ++k) {
                    order[k] = static_cast<std::uint32_t>(w.next(
                        [](std::size_t) { return std::size_t{0}; }));
                }
            }
            const auto at = [&](std::size_t k) -> const RecordFields & {
                return recs[seq ? k : order[k]];
            };

            // Staging-window misses are value-independent, so the
            // whole launch's block DMA can be charged up front: walk
            // the window over whole episodes until an episode ends in
            // the state it started from — from then on every episode
            // repeats that miss profile (identical visit order), and
            // the remainder collapses into one bulk charge. In
            // practice the window converges at the first or second
            // episode; convergence is checked, never assumed.
            {
                std::size_t bs = never, bl = 0;
                struct SpanTimes
                {
                    std::size_t len;
                    std::uint64_t times;
                };
                std::vector<SpanTimes> misses; // ≤2 lens: block, tail
                const auto miss = [&](std::size_t len,
                                      std::uint64_t times) {
                    for (auto &m : misses) {
                        if (m.len == len) {
                            m.times += times;
                            return;
                        }
                    }
                    misses.push_back({len, times});
                };
                std::uint64_t ep_done = 0;
                while (ep_done < eps) {
                    const std::size_t bs_in = bs, bl_in = bl;
                    std::size_t full = 0, tail_len = 0, tails = 0;
                    for (std::size_t k = 0; k < n; ++k) {
                        const std::size_t idx = seq ? k : order[k];
                        if (idx >= bs && idx < bs + bl)
                            continue;
                        bs = idx / p.blockTransitions *
                             p.blockTransitions;
                        bl = std::min(p.blockTransitions, n - bs);
                        if (bl == p.blockTransitions) {
                            ++full;
                        } else {
                            tail_len = bl;
                            ++tails;
                        }
                    }
                    ++ep_done;
                    // Steady state: this episode's end state equals
                    // its start state, so all remaining episodes
                    // repeat this exact profile.
                    const std::uint64_t reps =
                        (bs == bs_in && bl == bl_in)
                            ? 1 + (eps - ep_done)
                            : 1;
                    if (full > 0)
                        miss(p.blockTransitions, full * reps);
                    if (tails > 0)
                        miss(tail_len, tails * reps);
                    ep_done += reps - 1;
                }
                for (const auto &m : misses)
                    ctx.chargeDmaSpanBulk(m.len * kTransitionBytes,
                                          m.times);
            }

            if (!sarsa) {
                // Q-learning consumes no LCG draws, so the shape of
                // every visit is the record's terminal flag — and each
                // record is visited exactly once per episode, making
                // the tallies a closed form. The hot loop is just the
                // functional updates.
                for (std::uint64_t ep = 0; ep < eps; ++ep) {
                    if (seq) {
                        for (std::size_t k = 0; k < n; ++k)
                            update(o, q, recs[k]);
                    } else {
                        for (std::size_t k = 0; k < n; ++k)
                            update(o, q, recs[order[k]]);
                    }
                }
                t[kShapeTerminal] += eps * terminal_records;
                t[kShapeMain] += eps * (n - terminal_records);
            } else {
                // SARSA's explore/exploit shape depends on its LCG
                // draws: classify per visit.
                for (std::uint64_t ep = 0; ep < eps; ++ep) {
                    for (std::size_t k = 0; k < n; ++k) {
                        const RecordFields &f = at(k);
                        o.draws = 0;
                        update(o, q, f);
                        const std::size_t shape =
                            f.terminal        ? kShapeTerminal
                            : (o.draws == 2) ? kShapeExplore
                                              : kShapeMain;
                        ++t[shape];
                    }
                }
            }
        } else {
            // RAN: the sample index is itself an LCG draw, taken
            // before the update's own draws exactly as the scalar
            // fetch-then-update order does.
            const auto bound = static_cast<std::uint32_t>(n);
            if (!sarsa) {
                std::uint64_t term_visits = 0;
                for (std::uint64_t ep = 0; ep < eps; ++ep) {
                    for (std::size_t k = 0; k < n; ++k) {
                        const RecordFields &f =
                            recs[o.lcg.nextBounded(bound)];
                        update(o, q, f);
                        term_visits += f.terminal ? 1 : 0;
                    }
                }
                t[kShapeTerminal] += term_visits;
                t[kShapeMain] += eps * n - term_visits;
            } else {
                for (std::uint64_t ep = 0; ep < eps; ++ep) {
                    for (std::size_t k = 0; k < n; ++k) {
                        const RecordFields &f =
                            recs[o.lcg.nextBounded(bound)];
                        o.draws = 0;
                        update(o, q, f);
                        const std::size_t shape =
                            f.terminal        ? kShapeTerminal
                            : (o.draws == 2) ? kShapeExplore
                                              : kShapeMain;
                        ++t[shape];
                    }
                }
            }
        }
    }

    // Retire the tallied charges and write back per lane. Ordering
    // relative to the loop is immaterial: cycles, op counts and DMA
    // bytes are integer sums, so any interleaving that preserves the
    // per-lane totals is bit-identical to the scalar run.
    for (std::size_t i = 0; i < nlanes; ++i) {
        pimsim::KernelContext &ctx = bctx.lane(lane[i]);
        const std::uint64_t records = tally[i][kShapeTerminal] +
                                      tally[i][kShapeMain] +
                                      tally[i][kShapeExplore];
        for (std::size_t s = 0; s < kNumShapes; ++s) {
            if (tally[i][s] == 0)
                continue;
            for (std::size_t c = 0; c < pimsim::kNumOpClasses; ++c) {
                if (shapes[s][c] != 0)
                    ctx.chargeBulk(static_cast<pimsim::OpClass>(c),
                                   shapes[s][c] * tally[i][s]);
            }
        }
        // Fixed per-record charges outside the update rule, mirrored
        // from the scalar loop (the parity test enforces the match):
        //   aluOps(3) + branch   walker/loop bookkeeping
        //   aluOps(4)            record WRAM reads (fetch tail)
        //   aluOps(2)            decode: terminal-flag unmask
        //   block mode: aluOps(2) buffer indexing, every fetch
        //   RAN: lcgNextBounded draw = Int32Mul x2 + IntAlu x2,
        //        plus one 16-byte record DMA
        // Either mode totals 11 IntAlu per record. Episodes add one
        // branch each (the episode-loop branch).
        ctx.chargeBulk(pimsim::OpClass::IntAlu, 11 * records);
        ctx.chargeBulk(pimsim::OpClass::Branch,
                       records + static_cast<std::uint64_t>(
                                     p.episodes));
        if (!block_mode) {
            ctx.chargeBulk(pimsim::OpClass::Int32Mul, 2 * records);
            ctx.chargeDmaSpanBulk(kTransitionBytes, records);
        }
        // An in-place lane's updates are already in its bank: only
        // the modelled writeback is charged.
        if (inPlace[i])
            ctx.chargeDmaSpan(ownBytes[i]);
        else
            ctx.wramToMram(p.qOffset, qPtr[i], ownBytes[i]);
        (*p.lcgStates)[ctx.dpuId()] = ops[i].lcg.state();
    }
}

} // namespace

template <typename Ctx>
void
runTrainingKernel(Ctx &ctx, const KernelParams &p)
{
    using rlcore::Algorithm;
    using rlcore::NumericFormat;

    SWIFTRL_ASSERT(p.numStates > 0 && p.numActions > 0,
                   "kernel needs a Q-table shape");
    const auto scaled = rlcore::ScaledHyper::fromHyper(p.hyper);
    const auto epsilon_milli = scaled.epsilonMilli;
    const float alpha = p.hyper.alpha;
    const float gamma = p.hyper.gamma;
    const ActionId num_actions = p.numActions;

    if (p.workload.format == NumericFormat::Fp32) {
        if (p.workload.algo == Algorithm::QLearning) {
            trainCore<float>(
                ctx, p,
                [&](Ctx &c, float *q, const RecordFields &f) {
                    rlcore::qlearningUpdateFp32(
                        c, q, num_actions, f.s, f.a,
                        std::bit_cast<float>(f.rewardBits), f.s2,
                        f.terminal, alpha, gamma);
                });
        } else {
            trainCore<float>(
                ctx, p,
                [&](Ctx &c, float *q, const RecordFields &f) {
                    rlcore::sarsaUpdateFp32(
                        c, q, num_actions, f.s, f.a,
                        std::bit_cast<float>(f.rewardBits), f.s2,
                        f.terminal, alpha, gamma, epsilon_milli);
                });
        }
        return;
    }

    if (p.workload.format == NumericFormat::Int8) {
        const auto pow2 = rlcore::ScaledHyperPow2::fromHyper(p.hyper);
        if (p.workload.algo == Algorithm::QLearning) {
            trainCore<std::int32_t>(
                ctx, p,
                [&](Ctx &c, std::int32_t *q,
                    const RecordFields &f) {
                    rlcore::qlearningUpdateInt8(c, q, num_actions,
                                                f.s, f.a,
                                                f.rewardBits, f.s2,
                                                f.terminal, pow2);
                });
        } else {
            trainCore<std::int32_t>(
                ctx, p,
                [&](Ctx &c, std::int32_t *q,
                    const RecordFields &f) {
                    rlcore::sarsaUpdateInt8(c, q, num_actions, f.s,
                                            f.a, f.rewardBits, f.s2,
                                            f.terminal, pow2);
                });
        }
        return;
    }

    if (p.workload.algo == Algorithm::QLearning) {
        trainCore<std::int32_t>(
            ctx, p,
            [&](Ctx &c, std::int32_t *q, const RecordFields &f) {
                rlcore::qlearningUpdateInt32(c, q, num_actions, f.s,
                                             f.a, f.rewardBits, f.s2,
                                             f.terminal, scaled);
            });
    } else {
        trainCore<std::int32_t>(
            ctx, p,
            [&](Ctx &c, std::int32_t *q, const RecordFields &f) {
                rlcore::sarsaUpdateInt32(c, q, num_actions, f.s, f.a,
                                         f.rewardBits, f.s2,
                                         f.terminal, scaled);
            });
    }
}

// The production engine drives the batched context; the parity test
// drives the write-through reference. Instantiated here so kernel
// code stays out of the header while callers link either flavour.
template void
runTrainingKernel<pimsim::KernelContext>(pimsim::KernelContext &,
                                         const KernelParams &);
template void
runTrainingKernel<pimsim::ReferenceKernelContext>(
    pimsim::ReferenceKernelContext &, const KernelParams &);

void
runTrainingKernelBatch(pimsim::BatchKernelContext &batch,
                       const KernelParams &p)
{
    using rlcore::Algorithm;
    using rlcore::NumericFormat;

    SWIFTRL_ASSERT(p.numStates > 0 && p.numActions > 0,
                   "kernel needs a Q-table shape");
    const auto scaled = rlcore::ScaledHyper::fromHyper(p.hyper);
    const auto epsilon_milli = scaled.epsilonMilli;
    const float alpha = p.hyper.alpha;
    const float gamma = p.hyper.gamma;

    // The action count parameterises the update rules' inner max /
    // argmax loops. Dispatching it as a compile-time constant for the
    // common environment widths lets those loops fully unroll inside
    // the batch interpreter; the expression tree and its evaluation
    // order are untouched, so results stay bit-identical to the
    // runtime-width path (which remains the fallback).
    const auto run = [&](auto num_actions) {
        if (p.workload.format == NumericFormat::Fp32) {
            if (p.workload.algo == Algorithm::QLearning) {
                trainBatch<float, LaneOps>(
                    batch, p, /*sarsa=*/false, epsilon_milli,
                    [&](auto &ops, float *q, const RecordFields &f) {
                        rlcore::qlearningUpdateFp32(
                            ops, q, num_actions, f.s, f.a,
                            std::bit_cast<float>(f.rewardBits), f.s2,
                            f.terminal, alpha, gamma);
                    });
            } else {
                trainBatch<float, LaneOps>(
                    batch, p, /*sarsa=*/true, epsilon_milli,
                    [&](auto &ops, float *q, const RecordFields &f) {
                        rlcore::sarsaUpdateFp32(
                            ops, q, num_actions, f.s, f.a,
                            std::bit_cast<float>(f.rewardBits), f.s2,
                            f.terminal, alpha, gamma, epsilon_milli);
                    });
            }
            return;
        }

        if (p.workload.format == NumericFormat::Int8) {
            const auto pow2 =
                rlcore::ScaledHyperPow2::fromHyper(p.hyper);
            if (p.workload.algo == Algorithm::QLearning) {
                trainBatch<std::int32_t, LaneOps>(
                    batch, p, /*sarsa=*/false, epsilon_milli,
                    [&](auto &ops, std::int32_t *q,
                        const RecordFields &f) {
                        rlcore::qlearningUpdateInt8(
                            ops, q, num_actions, f.s, f.a,
                            f.rewardBits, f.s2, f.terminal, pow2);
                    });
            } else {
                trainBatch<std::int32_t, LaneOps>(
                    batch, p, /*sarsa=*/true, epsilon_milli,
                    [&](auto &ops, std::int32_t *q,
                        const RecordFields &f) {
                        rlcore::sarsaUpdateInt8(
                            ops, q, num_actions, f.s, f.a,
                            f.rewardBits, f.s2, f.terminal, pow2);
                    });
            }
            return;
        }

        // INT32: both rescales of an update divide by the scale; at
        // the default scale it is a compile-time constant.
        const auto int32 = [&](auto ops) {
            using Ops = typename decltype(ops)::type;
            if (p.workload.algo == Algorithm::QLearning) {
                trainBatch<std::int32_t, Ops>(
                    batch, p, /*sarsa=*/false, epsilon_milli,
                    [&](auto &o, std::int32_t *q,
                        const RecordFields &f) {
                        rlcore::qlearningUpdateInt32(
                            o, q, num_actions, f.s, f.a, f.rewardBits,
                            f.s2, f.terminal, scaled);
                    });
            } else {
                trainBatch<std::int32_t, Ops>(
                    batch, p, /*sarsa=*/true, epsilon_milli,
                    [&](auto &o, std::int32_t *q,
                        const RecordFields &f) {
                        rlcore::sarsaUpdateInt32(
                            o, q, num_actions, f.s, f.a, f.rewardBits,
                            f.s2, f.terminal, scaled);
                    });
            }
        };
        if (scaled.scale == common::kDefaultScale)
            int32(std::type_identity<
                  LaneOpsScale<common::kDefaultScale>>{});
        else
            int32(std::type_identity<LaneOps>{});
    };

    switch (p.numActions) {
    case 4: // FrozenLake-class grids
        run(std::integral_constant<ActionId, 4>{});
        break;
    case 6: // Taxi
        run(std::integral_constant<ActionId, 6>{});
        break;
    default:
        run(p.numActions);
        break;
    }
}

} // namespace swiftrl
