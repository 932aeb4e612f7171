/**
 * @file
 * lake-train and taxi-sync: whole offline training runs on a
 * 2,000-core machine, driven through TrainerSession.
 *
 * lake-train is the fig5 headline row (frozen lake, Q-learner-SEQ-FP32,
 * tau 50). Its 256-byte table makes sync negligible, so host time is
 * almost all kernel interpretation. taxi-sync is the taxi row at tau 5
 * (Q-learner-SEQ-INT32): every round gathers, decodes and averages
 * 2,000 x 12 KB tables and broadcasts the result, so the serial sync
 * path dominates.
 */

#include "training.hh"

#include <memory>

#include "pimsim/device_counters.hh"
#include "rlcore/seeds.hh"
#include "rlenv/registry.hh"

namespace perfbench {

using namespace swiftrl;

std::vector<float>
trainOnce(pimsim::PimSystem &system, const SessionConfig &config,
          const rlcore::Dataset &data, rlcore::StateId num_states,
          rlcore::ActionId num_actions, SpanLog &log,
          std::uint64_t trace, std::uint64_t parent, TrainStats &stats)
{
    const auto counters0 = pimsim::DeviceCounters::fromSystem(system);
    TrainerSession session(system, config);

    const std::int64_t start = nowNs();
    Call begin(log, "swiftrl.begin", trace, parent);
    session.beginOffline(data, num_states, num_actions);
    stats.beginSec.push_back(begin.end());

    int steps = 0;
    while (session.episodesRemaining() > 0) {
        const Usage before = Usage::now();
        Call step(log, "swiftrl.step", trace, parent);
        session.step();
        stats.stepSec.push_back(step.end());
        const Usage used = Usage::now() - before;
        stats.stepCpuSec += used.userSec + used.sysSec;
        stats.stepSysSec += used.sysSec;
        stats.stepMinorFaults += used.minorFaults;
        ++steps;
    }

    Call finish(log, "swiftrl.finish", trace, parent);
    session.finishRetrieval();
    stats.finishSec.push_back(finish.end());
    stats.runSec.push_back(static_cast<double>(nowNs() - start) * 1e-9);

    const auto counters =
        pimsim::DeviceCounters::fromSystem(system).since(counters0);
    stats.stepsPerRun = steps;
    stats.simOpsPerRun = counters.totalOps();
    stats.dmaBytesPerRun = counters.dmaBytes;
    stats.time = session.currentTime();
    stats.qDigest = digestFloats(session.aggregated().values());
    return session.aggregated().values();
}

void
reportTraining(const TrainStats &stats, Report &layers)
{
    const double ops_per_step =
        static_cast<double>(stats.simOpsPerRun) /
        static_cast<double>(stats.stepsPerRun);
    double step_wall = 0.0;
    for (const double s : stats.stepSec)
        step_wall += s;

    layers.set("pimsim.sim_ops", static_cast<double>(stats.simOpsPerRun),
               "count");
    layers.set("pimsim.dma_bytes",
               static_cast<double>(stats.dmaBytesPerRun), "bytes");
    layers.set("pimsim.host_ns_per_op",
               median(stats.stepSec) * 1e9 / ops_per_step, "ns");
    layers.set("pimsim.cpu_per_wall", stats.stepCpuSec / step_wall,
               "ratio");
    layers.set("swiftrl.begin_ms", median(stats.beginSec) * 1e3, "ms");
    layers.set("swiftrl.step_p50_ms", median(stats.stepSec) * 1e3, "ms");
    layers.set("swiftrl.step_p90_ms",
               quantile(stats.stepSec, 0.9) * 1e3, "ms");
    layers.set("swiftrl.steps", stats.stepsPerRun, "count");
    layers.set("swiftrl.finish_ms", median(stats.finishSec) * 1e3,
               "ms");
    layers.set("swiftrl.step_sys_share",
               stats.stepCpuSec > 0.0 ? stats.stepSysSec / stats.stepCpuSec
                                      : 0.0,
               "ratio");
    layers.set("swiftrl.minflt_per_step",
               static_cast<double>(stats.stepMinorFaults) /
                   static_cast<double>(stats.stepSec.size()),
               "count");
    layers.set("swiftrl.modelled_kernel_s", stats.time.kernel, "sim_s");
    layers.set("swiftrl.modelled_intercore_s", stats.time.interCore,
               "sim_s");
    layers.set("swiftrl.modelled_cpu_to_pim_s", stats.time.cpuToPim,
               "sim_s");
    layers.set("swiftrl.modelled_pim_to_cpu_s", stats.time.pimToCpu,
               "sim_s");
}

bool
checkTraining(const TrainStats &stats, Checker &checker)
{
    // '&', not '&&': every key is compared, so the reference of each
    // one is recorded on the first run.
    return checker.matches("q_digest", stats.qDigest) &
           checker.matches("modelled_s", hexBits(stats.time.total())) &
           checker.matches("sim_ops", std::to_string(stats.simOpsPerRun));
}

namespace {

/** One training workload's fixed shape. */
struct TrainShape
{
    const char *env;
    std::size_t cores;
    std::size_t transitions;
    Workload variant;
    int tau;
    int episodes;
};

class TrainingWorkload final : public Scenario
{
  public:
    TrainingWorkload(const Options &options, TrainShape shape)
        : _options(options), _shape(shape)
    {
        _config.workload = shape.variant;
        _config.tau = shape.tau;
        _config.hyper.episodes = shape.episodes;
        _config.hyper.seed = rlcore::deriveHostSeed(options.seed, 2);
        // Set explicitly: the library default is the scalar engine,
        // whose host time on this shape swings between two speed
        // clusters from run to run. The modelled results are
        // bit-identical either way.
        _config.batchExec = true;
    }

    void
    setup() override
    {
        const std::int64_t start = nowNs();
        auto env = rlenv::makeEnvironment(_shape.env);
        _numStates = env->numStates();
        _numActions = env->numActions();
        _data = rlcore::collectRandomDataset(
            *env, _shape.transitions,
            rlcore::deriveHostSeed(_options.seed, 1));
        _collectSec.push_back(static_cast<double>(nowNs() - start) *
                              1e-9);

        pimsim::PimConfig pim;
        pim.numDpus = _shape.cores;
        pim.hostThreads = kHostThreads;
        _system.reset();
        _system = std::make_unique<pimsim::PimSystem>(pim);
    }

    Phase
    measure(double seconds, SpanLog &log, Checker &checker) override
    {
        Phase phase;
        TrainStats stats;
        const std::int64_t start = nowNs();
        do {
            const std::uint64_t trace = newId();
            Call run(log, "bench.train_run", trace, 0);
            trainOnce(*_system, _config, _data, _numStates, _numActions,
                      log, trace, run.id(), stats);
            run.end();
            checker.op(checkTraining(stats, checker));
        } while (static_cast<double>(nowNs() - start) * 1e-9 < seconds);

        phase.unitSec = stats.runSec;
        phase.requestSec = stats.stepSec;
        // Every round sweeps each core's chunk tau times: one Q-update
        // per transition per episode.
        const double updates_per_round =
            static_cast<double>(_data.size()) *
            static_cast<double>(_shape.tau);
        phase.workPerSec =
            updates_per_round / quantile(stats.stepSec, 0.9);
        phase.modelledSec = stats.time.total();
        reportTraining(stats, phase.layers);
        return phase;
    }

    void
    setupLayers(Report &layers) const override
    {
        layers.set("rlcore.collect_ms", median(_collectSec) * 1e3, "ms");
    }

  private:
    Options _options;
    TrainShape _shape;
    SessionConfig _config;
    rlcore::Dataset _data;
    rlcore::StateId _numStates = 0;
    rlcore::ActionId _numActions = 0;
    std::unique_ptr<pimsim::PimSystem> _system;
    std::vector<double> _collectSec;
};

} // namespace

std::unique_ptr<Scenario>
makeLakeTrain(const Options &options)
{
    const Workload fp32{rlcore::Algorithm::QLearning, rlcore::Sampling::Seq,
                        rlcore::NumericFormat::Fp32};
    const TrainShape shape =
        options.small
            ? TrainShape{"frozenlake", 200, 10'000, fp32, 10, 40}
            : TrainShape{"frozenlake", 2000, 100'000, fp32, 50, 1000};
    return std::make_unique<TrainingWorkload>(options, shape);
}

std::unique_ptr<Scenario>
makeTaxiSync(const Options &options)
{
    const Workload int32{rlcore::Algorithm::QLearning,
                         rlcore::Sampling::Seq,
                         rlcore::NumericFormat::Int32};
    const TrainShape shape =
        options.small ? TrainShape{"taxi", 200, 20'000, int32, 5, 20}
                      : TrainShape{"taxi", 2000, 200'000, int32, 5, 50};
    return std::make_unique<TrainingWorkload>(options, shape);
}

} // namespace perfbench
