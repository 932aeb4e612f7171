/**
 * @file
 * fleet-preempt: a preemption-heavy multi-tenant job mix on a small
 * shared rank pool, driven through FleetScheduler::run.
 *
 * Twelve jobs from three tenants weighted 2:1:1 alternate frozen lake
 * and taxi, ask for 1-3 ranks with a floor of one, and arrive 0.5 ms
 * apart on a 4-rank x 16-DPU pool with a one-round quantum. Nearly
 * every grant ends in a preemption, so checkpoint, teardown, rebuild,
 * restore and fair-share arbitration are a large share of host time.
 *
 * The scheduler's per-grant work happens inside run(), out of reach of
 * an outside timer, so the workload also repeats that cycle by direct
 * calls on one of its job shapes: rebuild the machine, restoreOffline,
 * one round, pause + checkpoint, teardown. Each such preemption cycle
 * is one request of this workload.
 */

#include <filesystem>
#include <memory>

#include "fleet/scheduler.hh"
#include "harness.hh"
#include "pimsim/device_counters.hh"
#include "rlcore/seeds.hh"
#include "rlenv/registry.hh"

namespace perfbench {

using namespace swiftrl;

namespace {

/** Tenants, weighted 2:1:1 in the fleet config. */
const char *const kTenants[] = {"t0", "t1", "t2"};

/** Preemption cycles timed after each fleet run. */
constexpr int kCyclesPerRun = 40;

class FleetPreempt final : public Scenario
{
  public:
    explicit FleetPreempt(const Options &options) : _options(options)
    {
        _config.totalRanks = 4;
        _config.dpusPerRank = options.small ? 4 : 16;
        _config.quantumRounds = 1;
        _config.hostThreads = kHostThreads;
        _config.tenantWeights = {{"t0", 2.0}, {"t1", 1.0}, {"t2", 1.0}};
    }

    void
    setup() override
    {
        // The job shapes are fixed, so the work does not change with
        // the seed; the seed draws each job's collection and training
        // seeds, and the scheduler sees only the generated specs.
        common::SplitMix64 draw(rlcore::deriveHostSeed(_options.seed, 3));
        _jobs.clear();
        const int jobs = _options.small ? 6 : 12;
        for (int i = 0; i < jobs; ++i) {
            fleet::JobSpec job;
            job.id = "job" + std::to_string(i);
            job.tenant = kTenants[i % 3];
            job.env = i % 2 == 0 ? "frozenlake" : "taxi";
            job.workload = {rlcore::Algorithm::QLearning,
                            rlcore::Sampling::Seq,
                            rlcore::NumericFormat::Int32};
            job.ranks = 1 + static_cast<std::size_t>(i / 3) % 3;
            job.minRanks = 1;
            job.tau = 10;
            job.hyper.episodes = _options.small ? 40 : 200;
            job.transitions = _options.small ? 4'000 : 20'000;
            job.arrivalSec = 0.0005 * i;
            job.collectSeed = draw.next();
            job.hyper.seed = draw.next();
            _jobs.push_back(job);
        }

        // The preemption-cycle probe runs a 3-rank taxi job's shape
        // from a checkpoint taken after its first round.
        const fleet::JobSpec &probe = _jobs[_options.small ? 5 : 7];
        const std::int64_t start = nowNs();
        auto env = rlenv::makeEnvironment(probe.env);
        _probeData = rlcore::collectRandomDataset(*env, probe.transitions,
                                                  probe.collectSeed);
        _collectSec.push_back(static_cast<double>(nowNs() - start) *
                              1e-9);
        _probeConfig.workload = probe.workload;
        _probeConfig.hyper = probe.hyper;
        _probeConfig.tau = probe.tau;
        _probePim.numDpus = probe.ranks * _config.dpusPerRank;
        _probePim.hostThreads = kHostThreads;

        pimsim::PimSystem system(_probePim);
        TrainerSession session(system, _probeConfig);
        session.beginOffline(_probeData, env->numStates(),
                             env->numActions());
        session.step();
        session.pause();
        _probeStart = session.checkpoint();
    }

    Phase
    measure(double seconds, SpanLog &log, Checker &checker) override
    {
        Phase phase;
        fleet::FleetResult last;
        std::vector<double> stepSec, restoreSec, checkpointSec;
        double cycleCpu = 0.0, cycleWall = 0.0;
        std::uint64_t cycleOps = 0, cycleDma = 0;

        const std::int64_t start = nowNs();
        do {
            const std::uint64_t trace = newId();
            Call run(log, "fleet.run", trace, 0);
            fleet::FleetScheduler scheduler(_config);
            last = scheduler.run(_jobs);
            phase.unitSec.push_back(run.end());
            for (const auto &job : last.jobs) {
                checker.op(checker.matches(
                    job.id, digestFloats(job.finalQ.values())));
            }
            checker.op(
                checker.matches("makespan", hexBits(last.makespanSec)));

            for (int c = 0; c < kCyclesPerRun; ++c) {
                const std::uint64_t ctrace = newId();
                const Usage before = Usage::now();
                Call cycle(log, "bench.preempt_cycle", ctrace, 0);

                Call build(log, "pimsim.build", ctrace, cycle.id());
                auto system = std::make_unique<pimsim::PimSystem>(_probePim);
                auto session =
                    std::make_unique<TrainerSession>(*system, _probeConfig);
                build.end();

                Call restore(log, "swiftrl.restore", ctrace, cycle.id());
                session->restoreOffline(_probeData, _probeStart);
                restoreSec.push_back(restore.end());

                const auto counters0 =
                    pimsim::DeviceCounters::fromSystem(*system);
                Call step(log, "swiftrl.step", ctrace, cycle.id());
                session->step();
                stepSec.push_back(step.end());
                const auto counters =
                    pimsim::DeviceCounters::fromSystem(*system).since(
                        counters0);

                Call ckpt(log, "swiftrl.checkpoint", ctrace, cycle.id());
                session->pause();
                const SessionCheckpoint ck = session->checkpoint();
                checkpointSec.push_back(ckpt.end());

                Call teardown(log, "swiftrl.teardown", ctrace, cycle.id());
                session.reset();
                system.reset();
                teardown.end();

                const double sec = cycle.end();
                phase.requestSec.push_back(sec);
                const Usage used = Usage::now() - before;
                cycleCpu += used.userSec + used.sysSec;
                cycleWall += sec;
                cycleOps = counters.totalOps();
                cycleDma = counters.dmaBytes;
                checker.op(checker.matches(
                    "probe", digestFloats(ck.aggregated) + "/" +
                                 std::to_string(ck.commRounds)));
            }
        } while (static_cast<double>(nowNs() - start) * 1e-9 < seconds);

        double updates = 0.0;
        int grants = 0;
        int rounds = 0;
        double queueWait = 0.0;
        for (std::size_t i = 0; i < _jobs.size(); ++i) {
            updates += static_cast<double>(_jobs[i].transitions) *
                       static_cast<double>(_jobs[i].hyper.episodes);
            grants += last.jobs[i].grants;
            rounds += last.jobs[i].commRounds;
            queueWait += last.jobs[i].queueWaitSec;
        }
        const double run_sec = median(phase.unitSec);
        phase.workPerSec = updates / quantile(phase.unitSec, 0.9);
        phase.modelledSec = last.makespanSec;

        Report &l = phase.layers;
        l.set("fleet.grants", grants, "count");
        l.set("fleet.preemptions", last.totalPreemptions, "count");
        l.set("fleet.host_ms_per_grant", run_sec * 1e3 / grants, "ms");
        l.set("fleet.occupancy", last.occupancy(), "ratio");
        l.set("fleet.queue_wait_mean_s",
              queueWait / static_cast<double>(_jobs.size()), "sim_s");
        l.set("fleet.jobs_per_hour", last.jobsPerHour(), "1/h");
        l.set("swiftrl.steps", rounds, "count");
        l.set("swiftrl.step_p50_ms", median(stepSec) * 1e3, "ms");
        l.set("swiftrl.step_p90_ms", quantile(stepSec, 0.9) * 1e3, "ms");
        l.set("swiftrl.restore_us", median(restoreSec) * 1e6, "us");
        l.set("swiftrl.checkpoint_us", median(checkpointSec) * 1e6, "us");
        l.set("pimsim.sim_ops", static_cast<double>(cycleOps), "count");
        l.set("pimsim.dma_bytes", static_cast<double>(cycleDma), "bytes");
        l.set("pimsim.host_ns_per_op",
              median(stepSec) * 1e9 / static_cast<double>(cycleOps), "ns");
        l.set("pimsim.cpu_per_wall", cycleCpu / cycleWall, "ratio");
        return phase;
    }

    void
    setupLayers(Report &layers) const override
    {
        layers.set("rlcore.collect_ms", median(_collectSec) * 1e3, "ms");
        // The serialised size, as saveCheckpoint writes it.
        const std::string path =
            _options.outDir + "/fleet-probe-" +
            std::to_string(_options.seed) + ".swrl";
        std::string error;
        if (trySaveCheckpoint(_probeStart, path, &error)) {
            layers.set("swiftrl.checkpoint_bytes",
                       static_cast<double>(std::filesystem::file_size(path)),
                       "bytes");
            std::filesystem::remove(path);
        }
    }

  private:
    Options _options;
    fleet::FleetConfig _config;
    std::vector<fleet::JobSpec> _jobs;
    rlcore::Dataset _probeData;
    SessionConfig _probeConfig;
    pimsim::PimConfig _probePim;
    SessionCheckpoint _probeStart;
    std::vector<double> _collectSec;
};

} // namespace

std::unique_ptr<Scenario>
makeFleetPreempt(const Options &options)
{
    return std::make_unique<FleetPreempt>(options);
}

} // namespace perfbench
