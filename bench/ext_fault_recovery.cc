/**
 * @file
 * Extension E7: fault injection and recovery overhead.
 *
 * Real multi-rank UPMEM deployments see transient kernel faults,
 * corrupted transfers, and permanent core dropouts; the host absorbs
 * all three. This harness drives the simulator's seeded FaultPlan
 * through both trainers and checks the recovery contract end to end,
 * asserting every claim in the exit code:
 *
 *  1. An *inert* plan (seed set, all rates zero) is byte-identical in
 *     modelled time and Q-table to a build with no fault plan at all.
 *  2. Recovery overhead lands on the Recovery track: the reported
 *     `time.recovery` equals the timeline's Recovery-bucket total,
 *     the Recovery *phase* is non-empty whenever faults fired, and
 *     the overhead is excluded from the pipeline total.
 *  3. Transient/corruption faults are absorbed exactly: the retried
 *     run's Q-table is bit-identical to the fault-free run and its
 *     non-recovery pipeline total is unchanged.
 *  4. Permanent dropouts redistribute: the run completes with the
 *     surviving cores and stays bit-identical for every host-pool
 *     size — the determinism contract extends to the failure path.
 *  5. The same holds for the streaming trainer across actor counts.
 */

#include <cmath>
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "rlcore/collection.hh"
#include "rlcore/qtable.hh"
#include "rlenv/registry.hh"

int
main(int argc, char **argv)
{
    using namespace swiftrl;
    using common::TextTable;
    using pimsim::FaultKind;
    using pimsim::Phase;
    using pimsim::PimConfig;
    using pimsim::PimSystem;
    using pimsim::TimeBucket;
    using rlcore::Algorithm;
    using rlcore::NumericFormat;
    using rlcore::QTable;
    using rlcore::Sampling;

    const common::CliFlags flags(
        argc, argv, {"full", "cores", "transitions", "episodes"});
    const bool full = flags.getBool("full", false);
    const auto cores = static_cast<std::size_t>(
        flags.getInt("cores", full ? 500 : 64));
    const auto transitions = static_cast<std::size_t>(
        flags.getInt("transitions", full ? 100'000 : 8'192));
    const auto episodes =
        static_cast<int>(flags.getInt("episodes", full ? 100 : 20));

    bench::banner(
        "Extension E7: fault injection and recovery overhead", full,
        "frozenlake, Q-learner-SEQ-FP32, cores=" +
            std::to_string(cores) + ", " + std::to_string(transitions) +
            " transitions, " + std::to_string(episodes) +
            " episodes, fault seed 7");

    const std::string env_name = "frozenlake";
    auto probe = rlenv::makeEnvironment(env_name);
    const auto num_states = probe->numStates();
    const auto num_actions = probe->numActions();
    const auto data = bench::collectDataset(env_name, transitions, 11);

    SessionConfig train_cfg;
    train_cfg.workload = Workload{Algorithm::QLearning, Sampling::Seq,
                                  NumericFormat::Fp32};
    train_cfg.hyper.episodes = episodes;
    train_cfg.tau = std::min(5, episodes);
    train_cfg.tasklets = 2;
    // Rate rows keep a real per-command fault probability across the
    // whole sweep; give retry chains more headroom than the CLI
    // default of 3 so an unlucky seed cannot exhaust the harness.
    train_cfg.retry.limit = 10;

    const auto run = [&](const pimsim::FaultPlan &plan,
                         unsigned host_threads) {
        PimConfig pim;
        pim.numDpus = cores;
        pim.hostThreads = host_threads;
        pim.faultPlan = plan;
        PimSystem system(pim);
        return PimTrainer(system, train_cfg)
            .train(data, num_states, num_actions);
    };

    bool ok = true;
    const auto claim = [&ok](bool held, const std::string &what) {
        std::cout << "claim check: " << what << ": "
                  << (held ? "yes" : "NO — REGRESSION") << "\n";
        ok = ok && held;
    };

    // ---- 1. inert plan == no plan, byte for byte --------------------
    const auto clean = run({}, 0);
    pimsim::FaultPlan inert;
    inert.seed = 7; // a seed alone must not change anything
    const auto inert_run = run(inert, 0);
    bool inert_identical =
        QTable::maxAbsDifference(clean.finalQ, inert_run.finalQ) ==
            0.0f &&
        clean.timeline.size() == inert_run.timeline.size();
    if (inert_identical) {
        const auto &ea = clean.timeline.events();
        const auto &eb = inert_run.timeline.events();
        for (std::size_t i = 0; i < ea.size(); ++i)
            inert_identical = inert_identical &&
                              ea[i].start == eb[i].start &&
                              ea[i].end == eb[i].end &&
                              ea[i].label == eb[i].label;
    }

    // ---- 2+3. transient/corruption rate sweep -----------------------
    // The sweep targets a per-*command* fault probability p; the
    // per-(site, core) rate is p / cores, so the table reads the same
    // at any --cores.
    TextTable t("Transient + corruption faults, fixed seed "
                "(dropout disabled)");
    t.setHeader({"p(cmd)", "faults", "recovery (s)", "pipeline (s)",
                 "makespan (s)", "overhead"});
    bool sweep_identical = true;
    bool sweep_accounted = true;
    bool sweep_fired = false;
    for (const double p : {0.0, 0.05, 0.15, 0.4}) {
        pimsim::FaultPlan plan;
        plan.seed = 7;
        plan.transientRate = p / static_cast<double>(cores);
        plan.corruptRate = p / static_cast<double>(cores);
        if (p > 0.0) {
            // Anchor every faulted row with one scheduled transient
            // and one scheduled corruption so the recovery path is
            // exercised at any --cores/--episodes, independent of
            // the seed's rate draws. Site 0 is round 0's launch; its
            // retry takes site 1, so the round's gather is site 2.
            plan.scheduled = {
                {FaultKind::TransientKernel, /*site=*/0, /*dpu=*/0},
                {FaultKind::CorruptGather, /*site=*/2, /*dpu=*/1}};
        }
        const auto r = run(plan, 0);
        // Q must match bit for bit. The pipeline total is compared
        // with a 1e-9 relative tolerance: a retried command starts at
        // a recovery-shifted modelled time, and summing its (end -
        // start) duration at a different magnitude moves the bucket
        // totals by an ULP — schedule noise, not a cost change.
        sweep_identical =
            sweep_identical &&
            QTable::maxAbsDifference(clean.finalQ, r.finalQ) == 0.0f &&
            std::abs(r.time.total() - clean.time.total()) <=
                1e-9 * clean.time.total();
        // Recovery must be accounted once, on its own track: the
        // breakdown field mirrors the Recovery bucket exactly, fired
        // faults show up as busy time on the Recovery phase, and
        // total() excludes all of it. (The phase is busy even at
        // p=0 once a plan is active: checksum verification is paid
        // on every gather — detection is not free.)
        const double bucket =
            r.timeline.totalForBucket(TimeBucket::Recovery);
        sweep_accounted =
            sweep_accounted && r.time.recovery == bucket &&
            (r.faultsDetected == 0 ||
             r.timeline.totalForPhase(Phase::Recovery) > 0.0);
        sweep_fired = sweep_fired || r.faultsDetected > 0;
        t.addRow({TextTable::num(p, 2),
                  TextTable::num(
                      static_cast<long long>(r.faultsDetected)),
                  TextTable::num(r.time.recovery, 6),
                  TextTable::num(r.time.total(), 4),
                  TextTable::num(r.timeline.endTime(), 4),
                  TextTable::num(r.time.recovery / r.time.total(), 4)});
    }
    t.print(std::cout);

    // ---- 4. permanent dropout, across host-pool sizes ---------------
    pimsim::FaultPlan drop;
    drop.seed = 7;
    // Site 0 is round 0's launch; its retry occupies site 1 and the
    // round's gather site 2, so round 1's launch — the second
    // dropout's target — sits at site 3.
    drop.scheduled = {
        {FaultKind::PermanentDropout, /*site=*/0, /*dpu=*/1},
        {FaultKind::PermanentDropout, /*site=*/3,
         /*dpu=*/cores - 1}};
    TextTable t2("Permanent dropout recovery (2 scheduled dropouts), "
                 "host-pool sweep");
    t2.setHeader({"pool", "cores lost", "faults", "recovery (s)",
                  "max |dQ| vs pool=1"});
    const auto drop_serial = run(drop, 1);
    bool drop_ok = drop_serial.coresLost == 2 &&
                   drop_serial.time.recovery > 0.0 &&
                   drop_serial.time.recovery ==
                       drop_serial.timeline.totalForBucket(
                           TimeBucket::Recovery);
    for (const unsigned pool : {1u, 2u, 8u}) {
        const auto r = pool == 1 ? drop_serial : run(drop, pool);
        const float dq =
            QTable::maxAbsDifference(drop_serial.finalQ, r.finalQ);
        drop_ok = drop_ok && dq == 0.0f && r.coresLost == 2 &&
                  r.time.recovery == drop_serial.time.recovery;
        t2.addRow({TextTable::num(static_cast<long long>(pool)),
                   TextTable::num(
                       static_cast<long long>(r.coresLost)),
                   TextTable::num(
                       static_cast<long long>(r.faultsDetected)),
                   TextTable::num(r.time.recovery, 6),
                   TextTable::num(static_cast<double>(dq), 1)});
    }
    t2.print(std::cout);

    // ---- 5. streaming trainer, across actor counts ------------------
    StreamingConfig scfg;
    scfg.session.workload = train_cfg.workload;
    scfg.session.hyper.episodes = std::max(1, episodes / 4);
    scfg.session.tau = std::min(5, scfg.session.hyper.episodes);
    scfg.generations = 4;
    scfg.transitionsPerGeneration = transitions / 4;
    scfg.refreshPeriod = 2;
    scfg.session.retry = train_cfg.retry;
    pimsim::FaultPlan splan;
    splan.seed = 7;
    splan.transientRate = 0.1 / static_cast<double>(cores);
    splan.corruptRate = 0.1 / static_cast<double>(cores);
    // Site 0 is the first launch no matter what the rate draws do —
    // a dropout scheduled deeper in would shift with retries.
    splan.scheduled = {
        {FaultKind::PermanentDropout, /*site=*/0, /*dpu=*/3}};
    const auto srun = [&](unsigned actors, unsigned pool) {
        PimConfig pim;
        pim.numDpus = cores;
        pim.hostThreads = pool;
        pim.faultPlan = splan;
        PimSystem system(pim);
        StreamingConfig cfg = scfg;
        cfg.actors = actors;
        return StreamingTrainer(system, cfg).train(
            [&env_name] { return rlenv::makeEnvironment(env_name); },
            num_states, num_actions);
    };
    TextTable t3("Streaming trainer under the same plan, actor/pool "
                 "sweep");
    t3.setHeader({"actors", "pool", "faults", "cores lost",
                  "recovery (s)", "max |dQ| vs (1,1)"});
    const auto stream_base = srun(1, 1);
    bool stream_ok = stream_base.coresLost == 1 &&
                     stream_base.time.recovery ==
                         stream_base.timeline.totalForBucket(
                             TimeBucket::Recovery);
    const struct
    {
        unsigned actors, pool;
    } variants[] = {{1, 1}, {4, 1}, {1, 8}, {4, 8}};
    for (const auto &v : variants) {
        const auto r = (v.actors == 1 && v.pool == 1)
                           ? stream_base
                           : srun(v.actors, v.pool);
        const float dq =
            QTable::maxAbsDifference(stream_base.finalQ, r.finalQ);
        stream_ok = stream_ok && dq == 0.0f &&
                    r.faultsDetected == stream_base.faultsDetected &&
                    r.coresLost == stream_base.coresLost;
        t3.addRow({TextTable::num(static_cast<long long>(v.actors)),
                   TextTable::num(static_cast<long long>(v.pool)),
                   TextTable::num(
                       static_cast<long long>(r.faultsDetected)),
                   TextTable::num(
                       static_cast<long long>(r.coresLost)),
                   TextTable::num(r.time.recovery, 6),
                   TextTable::num(static_cast<double>(dq), 1)});
    }
    t3.print(std::cout);
    std::cout << "\n";

    claim(inert_identical, "inert fault plan is byte-identical in "
                           "time and Q to no plan");
    claim(sweep_accounted, "recovery overhead sits on the Recovery "
                           "bucket/phase and off the pipeline total");
    claim(sweep_fired, "the rate sweep actually exercised the fault "
                       "path (faults fired)");
    claim(sweep_identical, "transient+corruption runs reproduce the "
                           "fault-free Q exactly (pipeline total "
                           "within rounding)");
    claim(drop_ok, "dropout runs complete on the survivors, "
                   "bit-identical at every host-pool size");
    claim(stream_ok, "streaming recovery is bit-identical across "
                     "actor counts and pool sizes");

    std::cout
        << "\nreading: fault draws are pure in (seed, kind, site, "
           "core) and fault sites are positional on the command "
           "stream, so a fixed fault seed replays the same fault "
           "sequence — and the same recovery path — regardless of "
           "how the functional simulation is parallelised. Failed "
           "attempts, backoff, checksum verification, and "
           "redistribution transfers are all charged to the Recovery "
           "track, so the pipeline components stay comparable with "
           "the fault-free run and the overhead is visible on its "
           "own line.\n";
    return ok ? 0 : 1;
}
