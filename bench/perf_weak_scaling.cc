/**
 * @file
 * Weak-scaling benchmark for sharded Q-tables: grow the state space
 * and the shard count together (procedural "lake:<side>" instances,
 * roughly constant states *per shard*) and record the modelled time
 * per Q-update. The point of sharding is that this curve stays near
 * flat: with whole-table replication the per-round sync cost grows
 * with the full table, with shards each core only ever moves its
 * slice, so scaling the machine with the problem holds the per-update
 * cost steady.
 *
 * Before writing a single row the bench asserts the layer's two
 * correctness claims: a 1-shard run is bit-identical to the unsharded
 * trainer on the same dataset, and every configuration is
 * deterministic (two runs, identical Q bits). The modelled slots
 * tools/bench_compare.py verifies carry: sim_ops = communication
 * rounds, dma_bytes = per-round slice traffic (slice bytes x cores),
 * modelled_max_cycles = an FNV digest of the final Q-table bits — a
 * change that moves a learned value fails CI even at equal speed.
 *
 * Results go to JSON (default BENCH_weak_scaling.json); CI runs
 * --smoke and diffs against the recorded run (see
 * .github/workflows/ci.yml).
 */

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "common/stopwatch.hh"
#include "rlcore/collection.hh"
#include "rlenv/registry.hh"
#include "swiftrl/swiftrl.hh"

namespace {

using namespace swiftrl;
using common::TextTable;
using rlcore::Dataset;
using rlcore::QTable;

/** One weak-scaling point: a lake size plus its machine. */
struct Point
{
    rlcore::StateId side = 0;
    std::size_t shards = 0;
    std::size_t cores = 0;
    std::size_t transitions = 0;
};

/** One measured row. */
struct Row
{
    std::string name;
    rlcore::StateId states = 0;
    std::size_t shards = 0;
    std::size_t cores = 0;
    double wallSec = 0.0;
    double modelledSec = 0.0;
    double nsPerUpdate = 0.0;
    std::uint64_t simOps = 0;   ///< communication rounds
    std::uint64_t dmaBytes = 0; ///< per-round slice traffic
    std::uint64_t digest = 0;   ///< FNV digest of the final Q bits
};

/**
 * The weak-scaling ladder: states per shard stays near 256 (smoke) /
 * 1024 (full) while shards, cores, and the dataset scale together.
 */
std::vector<Point>
ladder(bool smoke)
{
    if (smoke)
        return {
            {16, 1, 2, 4'096},
            {23, 2, 4, 8'192},
            {32, 4, 8, 16'384},
            {45, 8, 16, 32'768},
        };
    return {
        {32, 1, 4, 16'384},
        {45, 2, 8, 32'768},
        {64, 4, 16, 65'536},
        {91, 8, 32, 131'072},
        {128, 16, 64, 262'144},
    };
}

SessionConfig
trainConfig(std::size_t shards, int episodes)
{
    SessionConfig cfg;
    cfg.workload = Workload{rlcore::Algorithm::QLearning,
                            rlcore::Sampling::Seq,
                            rlcore::NumericFormat::Fp32};
    cfg.hyper.episodes = episodes;
    cfg.tau = episodes / 4; // 4 sync rounds at any scale
    cfg.shards = shards;
    return cfg;
}

PimTrainResult
runPoint(const Dataset &data, rlcore::StateId ns, rlcore::ActionId na,
         std::size_t cores, std::size_t shards, int episodes)
{
    pimsim::PimConfig machine;
    machine.numDpus = cores;
    pimsim::PimSystem system(machine);
    PimTrainer trainer(system, trainConfig(shards, episodes));
    return trainer.train(data, ns, na);
}

/** FNV-1a over the final Q-table's bit pattern. */
std::uint64_t
digestTable(const QTable &q)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const float v : q.values()) {
        std::uint32_t bits;
        static_assert(sizeof bits == sizeof v);
        std::memcpy(&bits, &v, sizeof bits);
        for (int i = 0; i < 4; ++i) {
            hash ^= (bits >> (8 * i)) & 0xffu;
            hash *= 0x100000001b3ull;
        }
    }
    return (hash ^ (hash >> 32)) & 0xffffffffull;
}

bool
bitIdentical(const QTable &a, const QTable &b)
{
    return a.entryCount() == b.entryCount() &&
           std::memcmp(a.values().data(), b.values().data(),
                       a.entryCount() * sizeof(float)) == 0;
}

bool
measure(const Point &p, int episodes, Row &row)
{
    row.name = "lake" + std::to_string(p.side) + "/s" +
               std::to_string(p.shards);
    row.states = p.side * p.side;
    row.shards = p.shards;
    row.cores = p.cores;

    auto env = rlenv::makeEnvironment(
        "lake:" + std::to_string(p.side));
    const Dataset data =
        rlcore::collectRandomDataset(*env, p.transitions, 29);

    common::Stopwatch wall;
    const auto result = runPoint(data, env->numStates(),
                                 env->numActions(), p.cores,
                                 p.shards, episodes);
    row.wallSec = wall.seconds();
    row.modelledSec = result.time.total();

    // Every core sweeps its chunk once per episode, so the run
    // performs (episodes x transitions) Q-updates in aggregate.
    const double updates =
        double(episodes) * double(p.transitions);
    row.nsPerUpdate = row.modelledSec / updates * 1e9;
    row.simOps = std::uint64_t(result.commRounds);
    const std::size_t slice_rows =
        (std::size_t(row.states) + p.shards - 1) / p.shards;
    row.dmaBytes = std::uint64_t(slice_rows) *
                   std::uint64_t(env->numActions()) * 4 * p.cores;
    row.digest = digestTable(result.finalQ);

    // Determinism: the same point must reproduce bit-identically.
    const auto again = runPoint(data, env->numStates(),
                                env->numActions(), p.cores, p.shards,
                                episodes);
    if (!bitIdentical(result.finalQ, again.finalQ)) {
        std::cerr << row.name << ": two identical runs diverged\n";
        return false;
    }

    // 1-shard equivalence: sharding must be a pure layout change.
    if (p.shards == 1) {
        auto cfg = trainConfig(0, episodes);
        pimsim::PimConfig machine;
        machine.numDpus = p.cores;
        pimsim::PimSystem system(machine);
        const auto plain =
            PimTrainer(system, cfg).train(data, env->numStates(),
                                          env->numActions());
        if (!bitIdentical(result.finalQ, plain.finalQ)) {
            std::cerr << row.name
                      << ": 1-shard run diverged from the unsharded "
                         "trainer\n";
            return false;
        }
    }
    return true;
}

bool
writeJson(const std::string &path, const std::string &mode,
          const std::vector<Row> &rows)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\n"
        << "  \"bench\": \"perf_weak_scaling\",\n"
        << "  \"mode\": \"" << mode << "\",\n"
        << "  \"workloads\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        out << "    {\n"
            << "      \"name\": \"" << r.name << "\",\n"
            << "      \"states\": " << r.states << ",\n"
            << "      \"shards\": " << r.shards << ",\n"
            << "      \"cores\": " << r.cores << ",\n"
            << "      \"wall_sec\": " << r.wallSec << ",\n"
            << "      \"modelled_sec\": " << r.modelledSec << ",\n"
            << "      \"ns_per_update\": " << r.nsPerUpdate << ",\n"
            << "      \"sim_ops\": " << r.simOps << ",\n"
            << "      \"dma_bytes\": " << r.dmaBytes << ",\n"
            << "      \"modelled_max_cycles\": " << r.digest << "\n"
            << "    }" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    return static_cast<bool>(out);
}

} // namespace

int
main(int argc, char **argv)
{
    const common::CliFlags flags(argc, argv, {"smoke", "json"});

    const bool smoke = flags.getBool("smoke", false);
    const std::string json_path =
        flags.getString("json", "BENCH_weak_scaling.json");
    const int episodes = smoke ? 40 : 80;

    bench::banner("Sharded Q-table weak scaling (modelled ns/update)",
                  !smoke,
                  "procedural lakes, states/shard held steady");

    std::vector<Row> rows;
    for (const auto &p : ladder(smoke)) {
        Row row;
        if (!measure(p, episodes, row))
            return 1;
        rows.push_back(row);
    }

    // The weak-scaling claim itself: time per update must stay near
    // flat from the smallest machine to the largest. Whole-table
    // replication fails this bound well before 8 shards.
    const double first = rows.front().nsPerUpdate;
    const double last = rows.back().nsPerUpdate;
    if (last > first * 2.0) {
        std::cerr << "weak scaling broke: " << first
                  << " ns/update at " << rows.front().name << " vs "
                  << last << " at " << rows.back().name << "\n";
        return 1;
    }

    TextTable t("Sharded weak scaling (modelled time)");
    t.setHeader({"point", "states", "shards", "cores", "modelled s",
                 "ns/update", "wall s"});
    for (const auto &r : rows) {
        t.addRow({r.name, std::to_string(r.states),
                  std::to_string(r.shards), std::to_string(r.cores),
                  TextTable::num(r.modelledSec, 4),
                  TextTable::num(r.nsPerUpdate, 2),
                  TextTable::num(r.wallSec, 3)});
    }
    t.print(std::cout);
    std::cout << "\nflat-curve bound held (" << TextTable::num(last, 2)
              << " <= 2x " << TextTable::num(first, 2)
              << " ns/update); bench_compare verifies the digests\n";

    if (!writeJson(json_path, smoke ? "smoke" : "full", rows)) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
    }
    std::cout << "results written to " << json_path << "\n";
    return 0;
}
