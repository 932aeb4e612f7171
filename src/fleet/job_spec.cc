#include "fleet/job_spec.hh"

#include <fstream>
#include <set>
#include <sstream>

#include "common/json.hh"
#include "common/logging.hh"
#include "swiftrl/train_params.hh"

namespace swiftrl::fleet {

double
FleetConfig::weightFor(const std::string &tenant) const
{
    for (const auto &[name, weight] : tenantWeights) {
        if (name == tenant)
            return weight;
    }
    return 1.0;
}

SessionConfig
sessionConfigFor(const JobSpec &spec)
{
    SessionConfig cfg;
    cfg.workload = spec.workload;
    cfg.hyper = spec.hyper;
    cfg.tau = spec.tau;
    cfg.tasklets = spec.tasklets;
    return cfg;
}

namespace {

/** Reject members outside @p allowed (operator typos fail loudly). */
void
rejectUnknownKeys(const json::JsonValue &object,
                  const std::set<std::string> &allowed,
                  const char *where)
{
    for (const auto &[key, value] : object.members) {
        if (!allowed.contains(key))
            SWIFTRL_FATAL("fleet spec: unknown key \"", key, "\" in ",
                          where, " (see docs/SCHEDULER.md for the "
                          "schema)");
    }
}

long
positiveInt(const json::JsonValue &object, const char *key,
            long fallback, const char *where)
{
    const long v = object.intOr(key, fallback);
    if (v <= 0)
        SWIFTRL_FATAL("fleet spec: ", where, ".", key,
                      " must be positive, got ", v);
    return v;
}

JobSpec
parseJob(const json::JsonValue &j, std::size_t index)
{
    // The fleet's own keys; every other key is a training parameter.
    static const std::set<std::string> kJobKeys = {
        "id", "tenant", "priority", "arrival_sec", "ranks", "min_ranks",
    };
    const std::string where = "jobs[" + std::to_string(index) + "]";

    JobSpec spec;
    spec.id = j.stringOr("id", "");
    if (spec.id.empty())
        SWIFTRL_FATAL("fleet spec: ", where, " needs a non-empty "
                      "\"id\"");
    spec.tenant = j.stringOr("tenant", "");
    if (spec.tenant.empty())
        SWIFTRL_FATAL("fleet spec: job \"", spec.id, "\" needs a "
                      "non-empty \"tenant\"");
    spec.priority = static_cast<int>(j.intOr("priority", 0));
    spec.arrivalSec = j.numberOr("arrival_sec", 0.0);
    if (spec.arrivalSec < 0.0)
        SWIFTRL_FATAL("fleet spec: job \"", spec.id,
                      "\" arrival_sec must be >= 0");
    spec.ranks = static_cast<std::size_t>(
        positiveInt(j, "ranks", 1, where.c_str()));
    const long min_ranks = j.intOr("min_ranks", 0);
    if (min_ranks < 0 ||
        static_cast<std::size_t>(min_ranks) > spec.ranks)
        SWIFTRL_FATAL("fleet spec: job \"", spec.id,
                      "\" min_ranks must be in [0, ranks]");
    spec.minRanks = static_cast<std::size_t>(min_ranks);

    json::JsonValue training = j;
    std::erase_if(training.members, [](const auto &member) {
        return kJobKeys.contains(member.first);
    });
    TrainParams params;
    const std::string reason =
        readTrainParams(training, TrainSurface::Fleet, params);
    if (!reason.empty())
        SWIFTRL_FATAL("fleet spec: job \"", spec.id, "\": ", reason);
    spec.env = params.env;
    spec.workload = params.session.workload;
    spec.hyper = params.session.hyper;
    spec.tau = params.session.tau;
    spec.transitions = params.transitions;
    spec.tasklets = params.session.tasklets;
    spec.collectSeed = params.collectSeed;
    return spec;
}

} // namespace

FleetSpec
parseFleetSpec(const std::string &json_text)
{
    std::string error;
    const auto doc = json::parseJson(json_text, &error);
    if (!doc)
        SWIFTRL_FATAL("fleet spec: malformed JSON (", error, ")");
    if (!doc->isObject())
        SWIFTRL_FATAL("fleet spec: the document must be an object");
    static const std::set<std::string> kTopKeys = {"fleet", "tenants",
                                                  "jobs"};
    rejectUnknownKeys(*doc, kTopKeys, "the top-level object");

    FleetSpec spec;
    if (const auto *fleet = doc->find("fleet")) {
        if (!fleet->isObject())
            SWIFTRL_FATAL("fleet spec: \"fleet\" must be an object");
        static const std::set<std::string> kFleetKeys = {
            "ranks", "dpus_per_rank", "quantum_rounds"};
        rejectUnknownKeys(*fleet, kFleetKeys, "\"fleet\"");
        spec.config.totalRanks = static_cast<std::size_t>(
            positiveInt(*fleet, "ranks", 8, "fleet"));
        spec.config.dpusPerRank = static_cast<std::size_t>(
            positiveInt(*fleet, "dpus_per_rank", 8, "fleet"));
        spec.config.quantumRounds = static_cast<int>(
            positiveInt(*fleet, "quantum_rounds", 4, "fleet"));
    }

    if (const auto *tenants = doc->find("tenants")) {
        if (!tenants->isObject())
            SWIFTRL_FATAL("fleet spec: \"tenants\" must map tenant "
                          "names to fair-share weights");
        for (const auto &[name, weight] : tenants->members) {
            if (!weight.isNumber() || !(weight.number > 0.0))
                SWIFTRL_FATAL("fleet spec: tenant \"", name,
                              "\" weight must be a positive number");
            spec.config.tenantWeights.emplace_back(name,
                                                   weight.number);
        }
    }

    const auto *jobs = doc->find("jobs");
    if (!jobs || !jobs->isArray() || jobs->elements.empty())
        SWIFTRL_FATAL("fleet spec: \"jobs\" must be a non-empty "
                      "array");
    std::set<std::string> seen_ids;
    for (std::size_t i = 0; i < jobs->elements.size(); ++i) {
        const auto &element = jobs->elements[i];
        if (!element.isObject())
            SWIFTRL_FATAL("fleet spec: jobs[", i,
                          "] must be an object");
        JobSpec job = parseJob(element, i);
        if (!seen_ids.insert(job.id).second)
            SWIFTRL_FATAL("fleet spec: duplicate job id \"", job.id,
                          "\"");
        if (job.ranks > spec.config.totalRanks)
            SWIFTRL_FATAL("fleet spec: job \"", job.id, "\" wants ",
                          job.ranks, " ranks but the fleet has ",
                          spec.config.totalRanks);
        spec.jobs.push_back(std::move(job));
    }
    return spec;
}

FleetSpec
loadFleetSpec(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        SWIFTRL_FATAL("cannot open fleet spec ", path);
    std::ostringstream text;
    text << in.rdbuf();
    return parseFleetSpec(text.str());
}

} // namespace swiftrl::fleet
