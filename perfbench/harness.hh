/**
 * @file
 * Shared plumbing of the repository benchmark: host clocks, the
 * benchmark's own spans, sample statistics, output checking and the
 * per-run report. Everything here observes the library from outside;
 * nothing is linked into it.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/**
 * Host-thread pool of every PimSystem and fleet the benchmark builds:
 * the caller alone, no workers. The library default (0 = one thread
 * per hardware thread) and a 2-thread pool both fork and join on every
 * launch, and on a shared host each join waits for whichever vCPU a
 * neighbour took last. With a pool of 1 the round and fleet timings
 * repeat within a few percent; with 2 their spread across runs reached
 * 15-80% at the 90th percentile.
 */
inline constexpr unsigned kHostThreads = 1;

/** Closed-loop serving clients; the server's worker is one more
 *  thread. */
inline constexpr unsigned kServeClients = 3;

/** Steady-clock nanoseconds since an arbitrary epoch. */
std::int64_t nowNs();

/** One span the benchmark recorded around a call into the library. */
struct Span
{
    const char *name = ""; ///< "<module>.<call>", a string literal
    std::uint64_t trace = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 for a root span
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** Process-unique span and trace id (thread-safe). */
std::uint64_t newId();

/**
 * One thread's spans. Recording only appends to memory; the spans are
 * written out once the run ends. A disabled log records nothing, so
 * the untraced phase pays only the clock reads it needs anyway.
 */
struct SpanLog
{
    bool enabled = false;
    std::vector<Span> spans;
};

/**
 * A call timed from outside: construct before the call, end() after.
 * end() returns the host seconds and, when the log is enabled, records
 * the span.
 */
class Call
{
  public:
    Call(SpanLog &log, const char *name, std::uint64_t trace,
         std::uint64_t parent);

    /** Span id, for children's parent links. */
    std::uint64_t id() const { return _span.id; }

    double end();

  private:
    SpanLog &_log;
    Span _span;
};

/** Process resource usage: CPU seconds and minor faults so far. */
struct Usage
{
    double userSec = 0.0;
    double sysSec = 0.0;
    long minorFaults = 0;

    static Usage now();
    Usage operator-(const Usage &earlier) const;
};

/** Peak resident set of the process, MiB. */
double peakRssMb();

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/** Linear-interpolated @p q quantile (0..1) of @p v. */
double quantile(std::vector<double> v, double q);

/** FNV-1a over the bit patterns of @p values, as 16 hex digits. */
std::string digestFloats(const std::vector<float> &values);

/** The exact bits of @p x as 16 hex digits. */
std::string hexBits(double x);

/**
 * Output checking. Every operation the benchmark times is checked:
 * each checked value is compared with the expected value recorded for
 * the shipped seed, or, when none is recorded, with the first value
 * observed in this run. An operation fails when any of its values
 * differs.
 */
class Checker
{
  public:
    explicit Checker(std::map<std::string, std::string> expected);

    /** Compare one value; false on a mismatch. */
    bool matches(const std::string &key, const std::string &value);

    /** Count one operation. */
    void op(bool ok);

    /** Count @p attempted operations, @p failed of which failed. */
    void add(std::uint64_t attempted, std::uint64_t failed);

    std::uint64_t attempted() const { return _attempted; }
    std::uint64_t failed() const { return _failed; }

    /** The reference value of every key (recorded or first seen). */
    const std::map<std::string, std::string> &
    references() const
    {
        return _reference;
    }

  private:
    std::map<std::string, std::string> _reference;
    std::uint64_t _attempted = 0;
    std::uint64_t _failed = 0;
};

/** Ordered name -> (value, unit) metrics. */
class Report
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);

    /** False when any value is NaN or infinite. */
    bool allFinite() const;

    /** {"name": {"value": v, "unit": "u"}, ...} */
    std::string json() const;

  private:
    struct Entry
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Entry> _entries;
};

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Reduced shapes for the benchmark's own tests. */
    bool small = false;
    /** Where spans and scratch files go (inside the checkout). */
    std::string outDir = ".";
    std::map<std::string, std::string> expect;
};

/**
 * What one measured phase produced. Every workload fills the generic
 * fields the end-to-end metrics are computed from, plus the per-layer
 * metrics of the layers it exercises.
 */
struct Phase
{
    /** Host seconds of each unit of work (training run, fleet run,
     *  serving session). */
    std::vector<double> unitSec;
    /** Host seconds of each request the caller blocks on. */
    std::vector<double> requestSec;
    /** Items of work (Q-updates or queries) per host second, at the
     *  90th-percentile round or unit time. */
    double workPerSec = 0.0;
    /** Modelled seconds of one unit of work. */
    double modelledSec = 0.0;
    /** Per-layer metrics. */
    Report layers;
};

/**
 * One benchmark workload: set-up that can be repeated, then phases of
 * measured, checked work. setup() leaves the state the last call built
 * in place for measure().
 */
class Scenario
{
  public:
    virtual ~Scenario() = default;

    /** How many times the run repeats set-up (its median is
     *  setup_s). */
    virtual int setupRepeats() const { return 7; }

    virtual void setup() = 0;

    /** Run checked units of work for about @p seconds (at least
     *  one). */
    virtual Phase measure(double seconds, SpanLog &log,
                          Checker &checker) = 0;

    /** Per-layer metrics that come from set-up (collection etc.). */
    virtual void setupLayers(Report &) const {}
};

std::unique_ptr<Scenario> makeLakeTrain(const Options &options);
std::unique_ptr<Scenario> makeTaxiSync(const Options &options);
std::unique_ptr<Scenario> makeFleetPreempt(const Options &options);
std::unique_ptr<Scenario> makeServeMixed(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
