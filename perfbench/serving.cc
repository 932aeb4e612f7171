/**
 * @file
 * serve-mixed: closed-loop clients querying a PolicyServer over a taxi
 * table trained during set-up.
 *
 * Three clients (the server's worker is the fourth thread) each send
 * their next request when the previous one returns. 80% of requests
 * carry one query and 20% carry sixteen; the states are drawn from the
 * workload seed and the clients bill to two tenants. The server runs
 * its default ServingConfig (64 queries / 100 us), the same defaults
 * as the C ABI. Three callers never fill a batch, so requests wait out
 * the flush window: a change to the flush policy or to per-request
 * cost moves this workload, and no training change can.
 */

#include <algorithm>
#include <memory>
#include <thread>

#include "harness.hh"
#include "rlcore/seeds.hh"
#include "rlenv/registry.hh"
#include "serving/policy_server.hh"
#include "training.hh"

namespace perfbench {

using namespace swiftrl;

namespace {

/** One client's seeded session script and the answers it expects.
 *  Every session replays it. */
struct Script
{
    std::string tenant;
    std::vector<std::size_t> offsets; ///< request i is [i, i+1)
    std::vector<rlcore::StateId> states;
    std::vector<rlcore::ActionId> expected;
};

/** The argmax the benchmark computes itself: first maximum wins. */
rlcore::ActionId
argmax(const rlcore::QTable &table, rlcore::StateId s)
{
    rlcore::ActionId best = 0;
    for (rlcore::ActionId a = 1; a < table.numActions(); ++a) {
        if (table.at(s, a) > table.at(s, best))
            best = a;
    }
    return best;
}

class ServeMixed final : public Scenario
{
  public:
    explicit ServeMixed(const Options &options) : _options(options)
    {
        _config.workload = {rlcore::Algorithm::QLearning,
                            rlcore::Sampling::Seq,
                            rlcore::NumericFormat::Fp32};
        _config.tau = 10;
        _config.hyper.episodes = options.small ? 20 : 100;
        _config.hyper.seed = rlcore::deriveHostSeed(options.seed, 5);
        _config.batchExec = true;
        _pim.numDpus = options.small ? 50 : 250;
        _pim.hostThreads = kHostThreads;
        _requestsPerSession = options.small ? 200 : 1000;
    }

    int setupRepeats() const override { return 3; }

    void
    setup() override
    {
        _server.reset();

        const std::int64_t start = nowNs();
        auto env = rlenv::makeEnvironment("taxi");
        const auto data = rlcore::collectRandomDataset(
            *env, _options.small ? 5'000 : 50'000,
            rlcore::deriveHostSeed(_options.seed, 4));
        _collectSec.push_back(static_cast<double>(nowNs() - start) *
                              1e-9);

        pimsim::PimSystem system(_pim);
        SpanLog untraced;
        const auto values =
            trainOnce(system, _config, data, env->numStates(),
                      env->numActions(), untraced, 0, 0, _training);
        const auto table = rlcore::QTable::fromFloats(
            env->numStates(), env->numActions(), values);

        // Exactly a fifth of each client's requests carry 16 queries,
        // at seeded positions, so every seed and every session does
        // the same amount of work.
        common::SplitMix64 draw(rlcore::deriveHostSeed(_options.seed, 6));
        _scripts.assign(kServeClients, {});
        for (unsigned c = 0; c < kServeClients; ++c) {
            std::vector<std::size_t> counts(_requestsPerSession, 1);
            std::fill(counts.begin(), counts.begin() + counts.size() / 5,
                      16);
            for (std::size_t i = counts.size() - 1; i > 0; --i)
                std::swap(counts[i], counts[draw.next() % (i + 1)]);

            Script &script = _scripts[c];
            script.tenant = c % 2 == 0 ? "t0" : "t1";
            script.offsets.push_back(0);
            for (const std::size_t count : counts) {
                for (std::size_t k = 0; k < count; ++k) {
                    const auto s = static_cast<rlcore::StateId>(
                        draw.next() %
                        static_cast<std::uint64_t>(table.numStates()));
                    script.states.push_back(s);
                    script.expected.push_back(argmax(table, s));
                }
                script.offsets.push_back(script.states.size());
            }
        }
        _server = std::make_unique<serving::PolicyServer>(table);
    }

    Phase
    measure(double seconds, SpanLog &log, Checker &checker) override
    {
        Phase phase;
        checker.op(checker.matches("table",
                                   digestFloats(_server->table().values())) &
                   checker.matches("modelled_s",
                                   hexBits(_training.time.total())));

        const serving::ServingStats before = _server->stats();
        const std::int64_t start = nowNs();
        do {
            const std::uint64_t trace = newId();
            Call session(log, "bench.serve_session", trace, 0);
            std::vector<SpanLog> logs(kServeClients);
            std::vector<std::vector<double>> latency(kServeClients);
            std::vector<std::uint64_t> failed(kServeClients, 0);
            std::vector<std::thread> clients;
            for (unsigned c = 0; c < kServeClients; ++c) {
                logs[c].enabled = log.enabled;
                clients.emplace_back([&, c] {
                    runClient(_scripts[c], logs[c], session.id(),
                              latency[c], failed[c]);
                });
            }
            for (auto &t : clients)
                t.join();
            const double sec = session.end();

            for (unsigned c = 0; c < kServeClients; ++c) {
                phase.requestSec.insert(phase.requestSec.end(),
                                        latency[c].begin(),
                                        latency[c].end());
                log.spans.insert(log.spans.end(), logs[c].spans.begin(),
                                 logs[c].spans.end());
                checker.add(latency[c].size(), failed[c]);
            }
            phase.unitSec.push_back(sec);
        } while (static_cast<double>(nowNs() - start) * 1e-9 < seconds);

        const serving::ServingStats after = _server->stats();
        const auto batches =
            static_cast<double>(after.batches - before.batches);
        double session_queries = 0.0;
        for (const Script &script : _scripts)
            session_queries += static_cast<double>(script.states.size());
        phase.workPerSec = session_queries / quantile(phase.unitSec, 0.9);
        phase.modelledSec = _training.time.total();
        Report &l = phase.layers;
        l.set("serving.batches",
              batches / static_cast<double>(phase.unitSec.size()),
              "count");
        l.set("serving.queries_per_batch",
              static_cast<double>(after.queries - before.queries) /
                  batches,
              "count");
        l.set("serving.timeout_flush_share",
              static_cast<double>(after.timeoutBatches -
                                  before.timeoutBatches) /
                  batches,
              "ratio");
        l.set("serving.req_p99_us", quantile(phase.requestSec, 0.99) * 1e6,
              "us");
        l.set("serving.rejected",
              static_cast<double>(after.rejected - before.rejected),
              "count");
        return phase;
    }

    void
    setupLayers(Report &layers) const override
    {
        layers.set("rlcore.collect_ms", median(_collectSec) * 1e3, "ms");
        reportTraining(_training, layers);
    }

  private:
    /** One closed-loop client: send, wait, check, repeat. */
    void
    runClient(const Script &script, SpanLog &log, std::uint64_t parent,
              std::vector<double> &latency, std::uint64_t &failed)
    {
        std::vector<rlcore::ActionId> actions(16);
        latency.reserve(_requestsPerSession);
        for (std::size_t i = 0; i < _requestsPerSession; ++i) {
            const std::size_t first = script.offsets[i];
            const std::size_t count = script.offsets[i + 1] - first;

            Call call(log, "serving.act_batch", newId(), parent);
            const bool served = _server->actBatch(
                &script.states[first], actions.data(), count,
                script.tenant);
            latency.push_back(call.end());

            bool ok = served;
            for (std::size_t k = 0; ok && k < count; ++k)
                ok = actions[k] == script.expected[first + k];
            failed += ok ? 0 : 1;
        }
    }

    Options _options;
    SessionConfig _config;
    pimsim::PimConfig _pim;
    std::size_t _requestsPerSession = 0;
    std::vector<double> _collectSec;
    TrainStats _training;
    std::vector<Script> _scripts;
    std::unique_ptr<serving::PolicyServer> _server;
};

} // namespace

std::unique_ptr<Scenario>
makeServeMixed(const Options &options)
{
    return std::make_unique<ServeMixed>(options);
}

} // namespace perfbench
