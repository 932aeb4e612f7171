/**
 * @file
 * Google-benchmark microbenchmarks: host-side throughput of the
 * update rules, the reference trainers, the environments, and the
 * simulator itself. These are wall-clock numbers for *this* host —
 * used to size the experiment harnesses, not to reproduce paper
 * figures.
 */

#include <benchmark/benchmark.h>

#include "rlcore/dataset.hh"
#include "rlcore/trainers.hh"
#include "rlcore/update_rules.hh"
#include "rlenv/frozen_lake.hh"
#include "rlenv/taxi.hh"
#include "swiftrl/swiftrl.hh"

namespace {

using namespace swiftrl;
using rlcore::Algorithm;
using rlcore::Dataset;
using rlcore::Hyper;
using rlcore::NumericFormat;
using rlcore::Sampling;

const Dataset &
lakeData()
{
    static const Dataset data = [] {
        rlenv::FrozenLake env(true);
        return rlcore::collectRandomDataset(env, 50'000, 1);
    }();
    return data;
}

void
BM_UpdateRuleFp32(benchmark::State &state)
{
    rlcore::HostOps ops;
    std::vector<float> q(64, 0.0f);
    int i = 0;
    for (auto _ : state) {
        rlcore::qlearningUpdateFp32(ops, q.data(), 4,
                                    (i * 7) % 16, i % 4, 0.5f,
                                    (i * 3) % 16, false, 0.1f, 0.95f);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpdateRuleFp32);

void
BM_UpdateRuleInt32(benchmark::State &state)
{
    rlcore::HostOps ops;
    std::vector<std::int32_t> q(64, 0);
    Hyper h;
    const auto scaled = rlcore::ScaledHyper::fromHyper(h);
    int i = 0;
    for (auto _ : state) {
        rlcore::qlearningUpdateInt32(ops, q.data(), 4, (i * 7) % 16,
                                     i % 4, 5000, (i * 3) % 16, false,
                                     scaled);
        ++i;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpdateRuleInt32);

void
BM_CpuReferenceEpoch(benchmark::State &state)
{
    const auto &data = lakeData();
    Hyper h;
    h.episodes = 1;
    const auto sampling = static_cast<Sampling>(state.range(0));
    for (auto _ : state) {
        auto q = rlcore::trainCpuReference(Algorithm::QLearning, data,
                                           16, 4, h, sampling,
                                           NumericFormat::Fp32);
        benchmark::DoNotOptimize(q);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_CpuReferenceEpoch)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2); // SEQ / RAN / STR

void
BM_PimSimulatedEpoch(benchmark::State &state)
{
    const auto &data = lakeData();
    const auto format = static_cast<NumericFormat>(state.range(0));
    for (auto _ : state) {
        pimsim::PimConfig pim_cfg;
        pim_cfg.numDpus = 16;
        pimsim::PimSystem system(pim_cfg);
        SessionConfig cfg;
        cfg.workload =
            Workload{Algorithm::QLearning, Sampling::Seq, format};
        cfg.hyper.episodes = 1;
        cfg.tau = 1;
        PimTrainer trainer(system, cfg);
        auto r = trainer.train(data, 16, 4);
        benchmark::DoNotOptimize(r.finalQ);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_PimSimulatedEpoch)->Arg(0)->Arg(1); // FP32 / INT32

void
BM_FrozenLakeStep(benchmark::State &state)
{
    rlenv::FrozenLake env(true);
    common::XorShift128 rng(1);
    env.reset(rng);
    for (auto _ : state) {
        const auto r = env.step(
            static_cast<rlenv::ActionId>(rng.nextBounded(4)), rng);
        if (r.done())
            env.reset(rng);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrozenLakeStep);

void
BM_TaxiStep(benchmark::State &state)
{
    rlenv::Taxi env;
    common::XorShift128 rng(1);
    env.reset(rng);
    for (auto _ : state) {
        const auto r = env.step(
            static_cast<rlenv::ActionId>(rng.nextBounded(6)), rng);
        if (r.done())
            env.reset(rng);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TaxiStep);

void
BM_Lcg32Draw(benchmark::State &state)
{
    common::Lcg32 lcg(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(lcg.nextBounded(500));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Lcg32Draw);

} // namespace

BENCHMARK_MAIN();
