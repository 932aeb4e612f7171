/**
 * @file
 * The repository benchmark's entry point: one workload per process.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--small] [--out-dir <dir>] [--expect <key>=<value>]...
 *
 * Set-up runs setupRepeats() times (setup_s is the median). An
 * untraced run then measures for --seconds and reports the end-to-end
 * metrics. A traced run measures twice for half as long, once without
 * and once with spans, reports the per-layer metrics of the traced
 * half, each layer's self time, and the tracing overhead (traced minus
 * untraced), and writes the spans to <out-dir>/spans-<workload>-<seed>.json.
 * Every timed operation is checked (see Checker); the last stdout line
 * is the JSON result.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>

#include "harness.hh"

namespace {

using namespace perfbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <lake-train|taxi-sync|"
                 "fleet-preempt|serve-mixed> --seed <n> --seconds <s> "
                 "--trace <0|1> [--small] [--out-dir <dir>] "
                 "[--expect <key>=<value>]...\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--small") {
            o.small = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(flag + " expects a value");
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = !value.empty() && *end == '\0';
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            have_seconds = !value.empty() && *end == '\0' &&
                           o.seconds >= 0.0;
        } else if (flag == "--trace") {
            o.trace = value == "1";
            have_trace = value == "0" || value == "1";
        } else if (flag == "--out-dir") {
            o.outDir = value;
        } else if (flag == "--expect") {
            const auto eq = value.find('=');
            if (eq == std::string::npos)
                usage("--expect takes <key>=<value>");
            o.expect[value.substr(0, eq)] = value.substr(eq + 1);
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required "
              "and must be well-formed");
    return o;
}

std::unique_ptr<Scenario>
makeScenario(const Options &o)
{
    if (o.workload == "lake-train")
        return makeLakeTrain(o);
    if (o.workload == "taxi-sync")
        return makeTaxiSync(o);
    if (o.workload == "fleet-preempt")
        return makeFleetPreempt(o);
    if (o.workload == "serve-mixed")
        return makeServeMixed(o);
    usage("unknown workload " + o.workload);
}

/**
 * Per-unit self time of each module: a span's duration minus the part
 * of it its children cover, summed by the "<module>." name prefix.
 */
void
reportSelfTimes(const std::vector<Span> &spans, std::size_t units,
                Report &out)
{
    std::unordered_map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &s : spans)
        children[s.parent].push_back(&s);

    std::map<std::string, double> self_ns;
    for (const char *module :
         {"bench", "pimsim", "swiftrl", "fleet", "serving"})
        self_ns[module] = 0.0;
    for (const Span &s : spans) {
        std::vector<std::pair<std::int64_t, std::int64_t>> covered;
        for (const Span *c : children[s.id])
            covered.emplace_back(std::max(c->startNs, s.startNs),
                                 std::min(c->endNs, s.endNs));
        std::sort(covered.begin(), covered.end());
        std::int64_t busy = 0, reach = s.startNs;
        for (const auto &[lo, hi] : covered) {
            const std::int64_t from = std::max(lo, reach);
            if (hi > from) {
                busy += hi - from;
                reach = hi;
            }
        }
        const std::string name = s.name;
        self_ns[name.substr(0, name.find('.'))] +=
            static_cast<double>(s.endNs - s.startNs - busy);
    }
    for (const auto &[module, ns] : self_ns) {
        out.set(module + ".self_ms",
                ns * 1e-6 / static_cast<double>(units), "ms");
    }
}

bool
writeSpans(const std::vector<Span> &spans, const std::string &path)
{
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << "  {\"name\": \"" << s.name << "\", \"trace\": " << s.trace
            << ", \"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"start_ns\": " << s.startNs
            << ", \"end_ns\": " << s.endNs << "}"
            << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
}

std::string
jsonStrings(const std::map<std::string, std::string> &kv)
{
    std::string out = "{";
    for (const auto &[k, v] : kv)
        out += (out.size() > 1 ? ", \"" : "\"") + k + "\": \"" + v + "\"";
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseArgs(argc, argv);
    auto scenario = makeScenario(options);

    std::cout << "perfbench: workload=" << options.workload
              << " seed=" << options.seed
              << " scale=" << (options.small ? "small" : "full")
              << " nproc=" << std::thread::hardware_concurrency()
              << " host_threads=" << kHostThreads
              << " engine=batch(training)/default(fleet)"
              << " serve_clients=" << kServeClients
              << " build=" << PERFBENCH_BUILD_TYPE << "\n";

    std::vector<double> setup_sec;
    for (int i = 0; i < scenario->setupRepeats(); ++i) {
        const std::int64_t start = nowNs();
        scenario->setup();
        setup_sec.push_back(static_cast<double>(nowNs() - start) * 1e-9);
    }

    Checker checker(options.expect);
    Report out;
    SpanLog untraced;
    if (!options.trace) {
        const Phase p =
            scenario->measure(options.seconds, untraced, checker);
        out.set("setup_s", median(setup_sec), "s");
        out.set("wall_p90_s", quantile(p.unitSec, 0.9), "s");
        out.set("work_per_s", p.workPerSec, "1/s");
        out.set("req_p90_us", quantile(p.requestSec, 0.9) * 1e6, "us");
        out.set("modelled_s", p.modelledSec, "sim_s");
        out.set("peak_rss_mb", peakRssMb(), "MiB");
        std::cout << "samples: setups=" << setup_sec.size()
                  << " units=" << p.unitSec.size()
                  << " requests=" << p.requestSec.size() << "\n";
    } else {
        const Phase a =
            scenario->measure(options.seconds / 2, untraced, checker);
        SpanLog traced;
        traced.enabled = true;
        const Phase b =
            scenario->measure(options.seconds / 2, traced, checker);
        out = b.layers;
        scenario->setupLayers(out);
        const auto units = static_cast<double>(b.unitSec.size());
        reportSelfTimes(traced.spans, b.unitSec.size(), out);
        out.set("bench.units", units, "count");
        out.set("bench.requests", static_cast<double>(b.requestSec.size()),
                "count");
        out.set("bench.wall_p50_s", median(b.unitSec), "s");
        out.set("bench.req_p50_us", median(b.requestSec) * 1e6, "us");
        out.set("bench.spans_per_unit",
                static_cast<double>(traced.spans.size()) / units, "count");
        out.set("bench.trace_overhead_wall_s",
                quantile(b.unitSec, 0.9) - quantile(a.unitSec, 0.9), "s");
        out.set("bench.trace_overhead_req_us",
                (quantile(b.requestSec, 0.9) - quantile(a.requestSec, 0.9)) *
                    1e6,
                "us");
        const std::string path = options.outDir + "/spans-" +
                                 options.workload + "-" +
                                 std::to_string(options.seed) + ".json";
        if (!writeSpans(traced.spans, path)) {
            std::cerr << "perfbench: cannot write " << path << "\n";
            return 1;
        }
        std::cout << "spans: " << path << "\n";
    }

    if (!out.allFinite()) {
        std::cerr << "perfbench: a metric is not finite: " << out.json()
                  << "\n";
        return 1;
    }
    std::cout << "checks: " << jsonStrings(checker.references()) << "\n";
    std::cout << "{\"correct\": "
              << (checker.failed() == 0 ? "true" : "false")
              << ", \"attempted\": " << checker.attempted()
              << ", \"failed\": " << checker.failed()
              << ", \"metrics\": " << out.json() << "}" << std::endl;
    return 0;
}
