/**
 * @file
 * One offline training run through TrainerSession, timed call by call
 * from outside. Shared by the training workloads and by serve-mixed,
 * whose set-up trains the table it serves.
 */

#ifndef PERFBENCH_TRAINING_HH
#define PERFBENCH_TRAINING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hh"
#include "pimsim/pim_system.hh"
#include "rlcore/dataset.hh"
#include "swiftrl/session.hh"

namespace perfbench {

/** Host timings and modelled results accumulated over training runs. */
struct TrainStats
{
    std::vector<double> beginSec;
    std::vector<double> stepSec;
    std::vector<double> finishSec;
    /** beginOffline start to finishRetrieval end, per run. */
    std::vector<double> runSec;
    /** CPU, system CPU and minor faults summed over all steps. */
    double stepCpuSec = 0.0;
    double stepSysSec = 0.0;
    long stepMinorFaults = 0;

    /** Per run; identical for every run of one input. */
    int stepsPerRun = 0;
    std::uint64_t simOpsPerRun = 0;
    std::uint64_t dmaBytesPerRun = 0;
    swiftrl::TimeBreakdown time;
    std::string qDigest;
};

/**
 * Train @p data once on @p system: beginOffline, step() until the
 * episode budget is spent, finishRetrieval. Appends the timings to
 * @p stats and overwrites its per-run results; returns the final
 * Q-table values.
 */
std::vector<float> trainOnce(swiftrl::pimsim::PimSystem &system,
                             const swiftrl::SessionConfig &config,
                             const swiftrl::rlcore::Dataset &data,
                             swiftrl::rlcore::StateId num_states,
                             swiftrl::rlcore::ActionId num_actions,
                             SpanLog &log, std::uint64_t trace,
                             std::uint64_t parent, TrainStats &stats);

/** The pimsim.* and swiftrl.* per-layer metrics of @p stats. */
void reportTraining(const TrainStats &stats, Report &layers);

/** Check one run's Q digest, modelled seconds and op count. */
bool checkTraining(const TrainStats &stats, Checker &checker);

} // namespace perfbench

#endif // PERFBENCH_TRAINING_HH
