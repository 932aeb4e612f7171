/**
 * @file
 * Umbrella header: the SwiftRL public API.
 *
 * Typical use:
 * @code
 *   auto env = swiftrl::rlenv::makeEnvironment("frozenlake");
 *   auto data = swiftrl::rlcore::collectRandomDataset(*env, 100000, 1);
 *
 *   swiftrl::pimsim::PimConfig pim;
 *   pim.numDpus = 500;
 *   swiftrl::pimsim::PimSystem system(pim);
 *
 *   swiftrl::SessionConfig cfg;
 *   cfg.workload = {swiftrl::rlcore::Algorithm::QLearning,
 *                   swiftrl::rlcore::Sampling::Seq,
 *                   swiftrl::rlcore::NumericFormat::Int32};
 *   swiftrl::PimTrainer trainer(system, cfg);
 *   auto result = trainer.train(data, env->numStates(),
 *                               env->numActions());
 *
 *   auto quality = swiftrl::rlcore::evaluateGreedy(
 *       *env, result.finalQ, 1000, 7);
 * @endcode
 */

#ifndef SWIFTRL_SWIFTRL_HH
#define SWIFTRL_SWIFTRL_HH

#include "pimsim/pim_system.hh"
#include "rlcore/dataset.hh"
#include "rlcore/evaluate.hh"
#include "rlcore/policy.hh"
#include "rlcore/qtable.hh"
#include "rlcore/trainers.hh"
#include "rlenv/frozen_lake.hh"
#include "rlenv/registry.hh"
#include "rlenv/taxi.hh"
#include "swiftrl/partition.hh"
#include "swiftrl/pim_trainer.hh"
#include "swiftrl/streaming_trainer.hh"
#include "swiftrl/time_breakdown.hh"
#include "swiftrl/workload.hh"

#endif // SWIFTRL_SWIFTRL_HH
