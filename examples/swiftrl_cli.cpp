/**
 * @file
 * swiftrl_cli: run any SwiftRL workload from the command line — the
 * driver a downstream user reaches for first. Collects (or loads) an
 * offline dataset, trains the chosen workload variant on a simulated
 * PIM system, evaluates the deployed policy, prints the full report
 * (time breakdown + instruction mix), and optionally checkpoints the
 * dataset and the trained Q-table.
 *
 * With --streaming the offline collect-then-train flow is replaced by
 * the streaming actor–learner pipeline: --actors CPU threads collect
 * each generation while the PIM side trains the previous one, with
 * the behaviour policy refreshed from the learner every
 * --refresh-period generations.
 *
 * With --metrics (JSON) / --metrics-prom (Prometheus text) the run
 * additionally exports the telemetry registry — per-DPU instruction
 * mix, MRAM DMA bytes, straggler histograms, per-generation RL
 * metrics — together with a run manifest recording config, seeds,
 * fault plan, and cost-model provenance (docs/OBSERVABILITY.md).
 * --log-level (or SWIFTRL_LOG) sets the stderr verbosity.
 *
 * With --trace-spans the run retains its causal span tree (fleet ->
 * session -> engine / serving) and writes it as self-describing JSON
 * validated by tools/check_trace.py; --flight-record dumps the
 * always-on flight ring on exit and names the crash-dump destination
 * for SWIFTRL_FATAL / SWIFTRL_PANIC.
 *
 * Examples:
 *   swiftrl_cli --env taxi --algo sarsa --sampling ran --format int32
 *   swiftrl_cli --env frozenlake --cores 2000 --episodes 200 --tau 50
 *   swiftrl_cli --env frozenlake --save-qtable policy.swrl
 *   swiftrl_cli --env frozenlake --tasklets 11 --stats
 *   swiftrl_cli --env lake:64 --shards 8 --cores 32 --transitions 20000
 *   swiftrl_cli --env mptaxi:6x2 --shards 4 --cores 16
 *   swiftrl_cli --env frozenlake --metrics run.json --trace run.trace
 *   swiftrl_cli --env taxi --streaming --actors 4 --generations 8 \
 *               --refresh-period 2 --trace stream.json
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "fleet/job_spec.hh"
#include "fleet/scheduler.hh"
#include "pimsim/stats_report.hh"
#include "rlcore/serialization.hh"
#include "serving/policy_server.hh"
#include "swiftrl/swiftrl.hh"
#include "swiftrl/train_params.hh"
#include "telemetry/export.hh"
#include "telemetry/metric_registry.hh"
#include "telemetry/run_manifest.hh"
#include "telemetry/tracing.hh"

namespace {

/**
 * Write the file flag @p flag names, when it was given, through
 * @p write(path). False (with a warning) when it could not be
 * written.
 */
template <typename Write>
bool
writeRequested(const swiftrl::common::CliFlags &flags, const char *flag,
               const char *what, Write &&write)
{
    const auto path = flags.getString(flag, "");
    if (path.empty())
        return true;
    if (!write(path)) {
        SWIFTRL_WARN("cannot write ", what, " ", path);
        return false;
    }
    std::cout << what << " written to " << path << "\n";
    return true;
}

/**
 * The exports every mode shares: --metrics (JSON, validated by
 * tools/check_metrics.py and diffed by tools/bench_compare.py) and
 * --metrics-prom (Prometheus text) write the registry with its run
 * manifest; --trace-spans writes the retained causal span dump
 * (validated by tools/check_trace.py) and --flight-record the
 * always-on flight ring. Returns non-zero when a requested file could
 * not be written.
 */
int
writeExports(const swiftrl::common::CliFlags &flags,
             const swiftrl::telemetry::RunManifest &manifest,
             const swiftrl::telemetry::MetricRegistry &metrics)
{
    using namespace swiftrl;
    auto &tracer = telemetry::tracer();
    const bool ok =
        writeRequested(flags, "metrics", "metrics",
                       [&](const std::string &path) {
                           return telemetry::writeMetricsJson(
                               path, manifest, metrics);
                       }) &&
        writeRequested(flags, "metrics-prom", "prometheus metrics",
                       [&](const std::string &path) {
                           return telemetry::writeMetricsPrometheus(
                               path, manifest, metrics);
                       }) &&
        writeRequested(flags, "trace-spans", "trace spans",
                       [&](const std::string &path) {
                           return tracer.writeSpansJson(path);
                       }) &&
        writeRequested(flags, "flight-record", "flight record",
                       [&](const std::string &path) {
                           return tracer.writeFlightJson(path);
                       });
    return ok ? 0 : 1;
}

/**
 * --serve N: answer N greedy-action queries from @p table through the
 * batched serving frontend (src/serving), walking the state space
 * round-robin so the served actions are deterministic. False when a
 * query was rejected.
 */
bool
serveQueries(const swiftrl::rlcore::QTable &table, long long queries,
             const swiftrl::serving::ServingConfig &config,
             const std::string &tenant)
{
    using namespace swiftrl;
    serving::PolicyServer server(table, config);
    for (long long i = 0; i < queries; ++i) {
        const auto state =
            static_cast<rlcore::StateId>(i % table.numStates());
        if (server.act(state, tenant) < 0) {
            SWIFTRL_WARN("policy serving rejected state ", state,
                         " for tenant ", tenant);
            return false;
        }
    }
    server.stop();
    const auto stats = server.stats();
    std::cout << "served " << stats.queries << " queries for tenant "
              << tenant << " in " << stats.batches << " batch(es)\n";
    return true;
}

/** Shared tail of both modes: evaluate, report, export, checkpoint. */
int
finishRun(const swiftrl::common::CliFlags &flags,
          swiftrl::rlenv::Environment &env,
          const swiftrl::rlcore::QTable &final_q,
          const swiftrl::pimsim::Timeline &timeline,
          swiftrl::pimsim::PimSystem &system,
          swiftrl::telemetry::MetricRegistry &metrics,
          const swiftrl::telemetry::RunManifest &manifest)
{
    using namespace swiftrl;

    const auto eval_episodes =
        static_cast<int>(flags.getInt("eval-episodes", 1000));
    const auto eval =
        rlcore::evaluateGreedy(env, final_q, eval_episodes, 7);
    std::cout << "mean reward:      " << eval.meanReward << " over "
              << eval_episodes << " episodes (success rate "
              << eval.successRate << ", mean steps " << eval.meanSteps
              << ")\n";
    metrics.gauge("rl_eval_mean_reward").set(eval.meanReward);
    metrics.gauge("rl_eval_success_rate").set(eval.successRate);

    if (flags.getBool("stats", false)) {
        std::cout << "\n";
        pimsim::StatsReport::fromSystem(system).print(
            std::cout, "Device statistics");
    }

    // Export the run's command timeline as Chrome trace JSON: open
    // the file in chrome://tracing or https://ui.perfetto.dev. With
    // telemetry on, the trace additionally carries counter tracks
    // (straggler ratio, DMA bytes, live cores, max |dQ|); with
    // --trace-spans active, the retained causal spans are merged
    // into the same trace as nested slices (pid 1).
    if (!writeRequested(flags, "trace", "trace",
                        [&](const std::string &path) {
                            return timeline.writeChromeTrace(
                                path,
                                telemetry::tracer().chromeSpanEvents());
                        }))
        return 1;

    const auto save_q = flags.getString("save-qtable", "");
    if (!save_q.empty()) {
        rlcore::saveQTable(final_q, save_q);
        std::cout << "Q-table saved to " << save_q << "\n";
    }

    // --serve N: a smoke of the deployment path.
    const auto serve = flags.getInt("serve", 0);
    if (serve > 0 && !serveQueries(final_q, serve, {}, "default"))
        return 1;
    return writeExports(flags, manifest, metrics);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace swiftrl;

    // The training flags come from the training-parameter table
    // (swiftrl/train_params.hh); the rest drive this binary.
    std::vector<std::string> known = trainParamFlags();
    known.insert(
        known.end(),
        {"eval-episodes", "save-qtable", "save-dataset", "load-dataset",
         "stats", "trace", "streaming", "actors", "refresh-period",
         "generations", "fault-seed", "fault-rate", "dropout-rate",
         "retry-limit", "metrics", "metrics-prom", "log-level",
         "checkpoint", "pause-round", "restore", "serve", "fleet",
         "batch-exec", "trace-spans", "flight-record"});
    const common::CliFlags flags(argc, argv, std::move(known));

    // --log-level overrides the SWIFTRL_LOG environment variable.
    // An unknown name warns once and falls back to inform rather
    // than aborting the run.
    const auto log_level_name = flags.getString("log-level", "");
    if (!log_level_name.empty())
        common::setLogLevelFromName(log_level_name, "--log-level");

    // Causal tracing: --trace-spans turns on span retention for the
    // whole run; --flight-record names the on-demand flight-ring dump
    // and doubles as the crash-dump destination, so a SWIFTRL_FATAL
    // mid-run still leaves the recorder's trail on disk.
    if (!flags.getString("trace-spans", "").empty())
        telemetry::tracer().enableExport(true);
    const auto flight_record_path =
        flags.getString("flight-record", "");
    if (!flight_record_path.empty())
        telemetry::tracer().setCrashDumpPath(flight_record_path);

    // Training parameters: the table's defaults and rules, exactly as
    // the C ABI's params_json and fleet job specs read them.
    TrainParams params;
    const std::string params_reason = readTrainParams(flags, params);
    if (!params_reason.empty())
        SWIFTRL_FATAL("training flags: ", params_reason);

    // Telemetry: enabled only when an export was requested, so
    // default runs construct nothing but an inert registry. The
    // trainers see a null registry pointer in that case and skip
    // collector attachment entirely.
    const bool want_metrics =
        !flags.getString("metrics", "").empty() ||
        !flags.getString("metrics-prom", "").empty();
    telemetry::MetricRegistry metrics(want_metrics);

    // --- fleet mode --------------------------------------------------
    // --fleet jobs.json replaces the single-run flow entirely: the
    // document describes a shared rank pool and a multi-tenant job
    // list (schema in docs/SCHEDULER.md), and the scheduler runs it
    // to completion. Per-run training flags other than --host-threads
    // are ignored — each job carries its own workload and
    // hyper-parameters.
    const auto fleet_path = flags.getString("fleet", "");
    if (!fleet_path.empty()) {
        if (flags.getBool("streaming", false) ||
            !flags.getString("checkpoint", "").empty() ||
            !flags.getString("restore", "").empty()) {
            SWIFTRL_FATAL("--fleet is its own mode; it cannot combine "
                          "with --streaming/--checkpoint/--restore");
        }
        auto spec = fleet::loadFleetSpec(fleet_path);
        spec.config.hostThreads = params.hostThreads;
        spec.config.metrics = want_metrics ? &metrics : nullptr;

        std::cout << "fleet: " << spec.config.totalRanks
                  << " rank(s) x " << spec.config.dpusPerRank
                  << " core(s), quantum "
                  << spec.config.quantumRounds << " round(s), "
                  << spec.jobs.size() << " job(s)\n";

        fleet::FleetScheduler scheduler(spec.config);
        const auto result = scheduler.run(spec.jobs);

        std::cout << "\n--- fleet results ---\n";
        for (const auto &job : result.jobs) {
            std::cout << job.id << " (tenant " << job.tenant
                      << "): finished at " << job.finishSec
                      << " s, queue wait " << job.queueWaitSec
                      << " s, " << job.preemptions
                      << " preemption(s), " << job.grants
                      << " grant(s), " << job.commRounds
                      << " round(s)\n";
        }
        std::cout << "makespan:         " << result.makespanSec
                  << " s\n"
                  << "throughput:       " << result.jobsPerHour()
                  << " jobs/hour\n"
                  << "rank occupancy:   " << result.occupancy()
                  << "\n"
                  << "preemptions:      " << result.totalPreemptions
                  << "\n";

        // --serve N in fleet mode: stand up one serving frontend per
        // finished job and answer N greedy queries from its trained
        // table, labelled with the job's tenant. Each server's span
        // tree parents on that job's fleet.job span, so serve traffic
        // in the trace dump is causally attributed to the job that
        // trained the table.
        const auto fleet_serve = flags.getInt("serve", 0);
        for (const auto &job : result.jobs) {
            if (fleet_serve <= 0)
                break;
            serving::ServingConfig serve_cfg;
            serve_cfg.traceParent = job.traceSpanId;
            serve_cfg.metrics = spec.config.metrics;
            std::cout << job.id << ": ";
            if (!serveQueries(job.finalQ, fleet_serve, serve_cfg,
                              job.tenant))
                return 1;
        }

        telemetry::RunManifest fleet_manifest;
        fleet_manifest.tool = "swiftrl_cli";
        fleet_manifest.mode = "fleet";
        fleet_manifest.cores =
            spec.config.totalRanks * spec.config.dpusPerRank;
        fleet_manifest.hostThreads = spec.config.hostThreads;
        return writeExports(flags, fleet_manifest, metrics);
    }

    const std::string &env_name = params.env;
    auto env = rlenv::makeEnvironment(env_name);

    // Machine. --host-threads only changes how fast the simulation
    // itself runs (0 = one worker per hardware thread); results and
    // modelled times are bit-identical for every value.
    pimsim::PimConfig pim;
    pim.numDpus = params.cores;
    pim.hostThreads = params.hostThreads;
    // Fault injection (off by default): --fault-rate covers transient
    // kernel faults and wire corruption, --dropout-rate permanent
    // core loss; draws are seeded by --fault-seed, so a run's fault
    // sequence — and its recovered Q-table — is reproducible.
    pim.faultPlan.seed =
        static_cast<std::uint64_t>(flags.getInt("fault-seed", 1));
    const double fault_rate = flags.getDouble("fault-rate", 0.0);
    pim.faultPlan.transientRate = fault_rate;
    pim.faultPlan.corruptRate = fault_rate;
    pim.faultPlan.dropoutRate = flags.getDouble("dropout-rate", 0.0);
    pimsim::PimSystem system(pim);

    auto manifest = telemetry::RunManifest::fromSystem(system);
    manifest.tool = "swiftrl_cli";
    manifest.environment = env_name;

    // Training configuration, shared by both modes.
    SessionConfig &session = params.session;
    const Workload &workload = session.workload;
    const rlcore::Hyper &hyper = session.hyper;
    RetryPolicy &retry = session.retry;
    retry.limit =
        static_cast<int>(flags.getInt("retry-limit", retry.limit));
    if (pim.faultPlan.enabled()) {
        std::cout << "fault injection:  rate " << fault_rate
                  << ", dropout " << pim.faultPlan.dropoutRate
                  << ", seed " << pim.faultPlan.seed
                  << ", retry limit " << retry.limit << "\n";
    }

    // --batch-exec 0 runs every launch on the scalar interpreter, the
    // batch engine's reference. Bit-identical results; host
    // wall-clock only.
    session.batchExec = flags.getBool("batch-exec", session.batchExec);
    session.metrics = want_metrics ? &metrics : nullptr;

    manifest.workload = workload.name();
    manifest.tasklets = session.tasklets;
    manifest.episodes = hyper.episodes;
    manifest.tau = session.tau;
    manifest.weightedAggregation = session.weightedAggregation;
    manifest.alpha = hyper.alpha;
    manifest.gamma = hyper.gamma;
    manifest.epsilon = hyper.epsilon;
    manifest.collectSeed = params.collectSeed;
    manifest.trainSeed = hyper.seed;
    manifest.retryLimit = retry.limit;

    if (flags.getBool("streaming", false)) {
        // --- streaming actor–learner mode ---------------------------
        if (!flags.getString("checkpoint", "").empty() ||
            !flags.getString("restore", "").empty()) {
            SWIFTRL_FATAL("--checkpoint/--restore drive the offline "
                          "trainer; streaming runs restore through "
                          "the TrainerSession API instead");
        }
        StreamingConfig cfg;
        cfg.session = session;
        cfg.generations = static_cast<int>(
            flags.getInt("generations", cfg.generations));
        // --episodes and --transitions are run totals in both modes;
        // streaming splits them evenly across the generations.
        cfg.session.hyper.episodes =
            std::max(1, hyper.episodes / std::max(1, cfg.generations));
        cfg.transitionsPerGeneration =
            params.transitions /
            static_cast<std::size_t>(std::max(1, cfg.generations));
        cfg.actors = static_cast<unsigned>(
            flags.getInt("actors", cfg.actors));
        cfg.refreshPeriod = static_cast<int>(
            flags.getInt("refresh-period", cfg.refreshPeriod));
        cfg.collectSeed = params.collectSeed;

        manifest.mode = "streaming";
        manifest.episodes = cfg.session.hyper.episodes;
        manifest.transitions = cfg.transitionsPerGeneration;
        manifest.generations = cfg.generations;
        manifest.actors = cfg.actors;
        manifest.refreshPeriod = cfg.refreshPeriod;

        std::cout << "streaming " << workload.name() << " on "
                  << pim.numDpus << " PIM cores, " << cfg.generations
                  << " generations x " << cfg.transitionsPerGeneration
                  << " transitions, " << cfg.actors
                  << " actor(s), refresh-period=" << cfg.refreshPeriod
                  << "\n";

        StreamingTrainer trainer(system, cfg);
        const auto result = trainer.train(
            [&env_name] { return rlenv::makeEnvironment(env_name); },
            env->numStates(), env->numActions());

        std::cout << "\n--- results ---\n"
                  << "end-to-end:       " << result.endToEnd << " s"
                  << " (PIM pipeline " << result.time.total()
                  << ", host collect " << result.time.hostCollect
                  << " overlapped)\n"
                  << "breakdown:        kernel " << result.time.kernel
                  << ", cpu->pim " << result.time.cpuToPim
                  << ", pim->cpu " << result.time.pimToCpu
                  << ", inter-core " << result.time.interCore << "\n"
                  << "comm rounds:      " << result.commRounds
                  << ", policy refreshes " << result.policyRefreshes
                  << ", transitions " << result.transitions << "\n";
        if (pim.faultPlan.enabled()) {
            std::cout << "recovery:         "
                      << result.faultsDetected << " fault(s), "
                      << result.coresLost << " core(s) lost, "
                      << result.time.recovery
                      << " s recovery overhead\n";
        }
        return finishRun(flags, *env, result.finalQ, result.timeline,
                         system, metrics, manifest);
    }

    // --- offline (paper) mode ---------------------------------------
    // Dataset: load a checkpoint or collect fresh.
    rlcore::Dataset data;
    const auto load_path = flags.getString("load-dataset", "");
    if (!load_path.empty()) {
        data = rlcore::loadDataset(load_path);
        std::cout << "loaded " << data.size() << " transitions from "
                  << load_path << "\n";
    } else {
        data = rlcore::collectRandomDataset(*env, params.transitions,
                                            params.collectSeed);
        std::cout << "collected " << data.size()
                  << " transitions from " << env_name << "\n";
    }
    const auto save_data = flags.getString("save-dataset", "");
    if (!save_data.empty()) {
        rlcore::saveDataset(data, save_data);
        std::cout << "dataset saved to " << save_data << "\n";
    }

    manifest.mode = "offline";
    manifest.transitions = data.size();

    std::cout << "training " << workload.name() << " on "
              << pim.numDpus << " PIM cores x " << session.tasklets
              << " tasklet(s), " << hyper.episodes
              << " episodes, tau=" << session.tau << "\n";

    PimTrainer trainer(system, session);

    // --checkpoint PATH [--pause-round N]: train to round boundary N,
    // persist the session checkpoint, and stop — no retrieval, no
    // evaluation. A later invocation with the same configuration and
    // dataset flags plus --restore PATH continues bit-identically to
    // an uninterrupted run (tests/test_session.cc proves it).
    const auto checkpoint_path = flags.getString("checkpoint", "");
    const auto restore_path = flags.getString("restore", "");
    if (!checkpoint_path.empty()) {
        if (!restore_path.empty())
            SWIFTRL_FATAL("--checkpoint and --restore are one-at-a-"
                          "time: pause a run or continue one");
        const auto rounds =
            static_cast<int>(flags.getInt("pause-round", 1));
        if (rounds < 1)
            SWIFTRL_FATAL("--pause-round must be >= 1, got ", rounds);
        const auto ck = trainer.trainUntilRound(
            data, env->numStates(), env->numActions(), rounds);
        saveCheckpoint(ck, checkpoint_path);
        std::cout << "checkpoint written to " << checkpoint_path
                  << " after " << ck.commRounds << " round(s); "
                  << "resume with --restore " << checkpoint_path
                  << "\n";
        return writeExports(flags, manifest, metrics);
    }

    const auto result =
        restore_path.empty()
            ? trainer.train(data, env->numStates(), env->numActions())
            : trainer.resume(data, env->numStates(),
                             env->numActions(),
                             loadCheckpoint(restore_path));
    if (!restore_path.empty())
        std::cout << "restored session from " << restore_path << "\n";

    std::cout << "\n--- results ---\n"
              << "modelled time:    " << result.time.total() << " s"
              << " (kernel " << result.time.kernel << ", cpu->pim "
              << result.time.cpuToPim << ", pim->cpu "
              << result.time.pimToCpu << ", inter-core "
              << result.time.interCore << ")\n"
              << "comm rounds:      " << result.commRounds << "\n";
    if (pim.faultPlan.enabled()) {
        std::cout << "recovery:         " << result.faultsDetected
                  << " fault(s), " << result.coresLost
                  << " core(s) lost, " << result.time.recovery
                  << " s recovery overhead\n";
    }
    return finishRun(flags, *env, result.finalQ, result.timeline,
                     system, metrics, manifest);
}
