#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
newId()
{
    static std::atomic<std::uint64_t> next{0};
    return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

Call::Call(SpanLog &log, const char *name, std::uint64_t trace,
           std::uint64_t parent)
    : _log(log)
{
    _span.name = name;
    _span.trace = trace;
    _span.parent = parent;
    if (log.enabled)
        _span.id = newId();
    _span.startNs = nowNs();
}

double
Call::end()
{
    _span.endNs = nowNs();
    if (_log.enabled)
        _log.spans.push_back(_span);
    return static_cast<double>(_span.endNs - _span.startNs) * 1e-9;
}

Usage
Usage::now()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.userSec = static_cast<double>(ru.ru_utime.tv_sec) +
                static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sysSec = static_cast<double>(ru.ru_stime.tv_sec) +
               static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.minorFaults = ru.ru_minflt;
    return u;
}

Usage
Usage::operator-(const Usage &earlier) const
{
    Usage d;
    d.userSec = userSec - earlier.userSec;
    d.sysSec = sysSec - earlier.sysSec;
    d.minorFaults = minorFaults - earlier.minorFaults;
    return d;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

std::string
digestFloats(const std::vector<float> &values)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const float v : values) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        for (int i = 0; i < 4; ++i) {
            hash ^= (bits >> (8 * i)) & 0xffu;
            hash *= 0x100000001b3ull;
        }
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, hash);
    return buf;
}

std::string
hexBits(double x)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, bits);
    return buf;
}

Checker::Checker(std::map<std::string, std::string> expected)
    : _reference(std::move(expected))
{}

bool
Checker::matches(const std::string &key, const std::string &value)
{
    const auto [it, inserted] = _reference.emplace(key, value);
    return inserted || it->second == value;
}

void
Checker::op(bool ok)
{
    ++_attempted;
    if (!ok)
        ++_failed;
}

void
Checker::add(std::uint64_t attempted, std::uint64_t failed)
{
    _attempted += attempted;
    _failed += failed;
}

void
Report::set(const std::string &name, double value,
            const std::string &unit)
{
    for (auto &e : _entries) {
        if (e.name == name) {
            e.value = value;
            e.unit = unit;
            return;
        }
    }
    _entries.push_back({name, value, unit});
}

bool
Report::allFinite() const
{
    return std::all_of(_entries.begin(), _entries.end(),
                       [](const Entry &e) { return std::isfinite(e.value); });
}

std::string
Report::json() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < _entries.size(); ++i) {
        char value[40];
        // %.17g round-trips every double: values keep all their
        // digits.
        std::snprintf(value, sizeof value, "%.17g", _entries[i].value);
        out += (i ? ", \"" : "\"") + _entries[i].name +
               "\": {\"value\": " + value + ", \"unit\": \"" +
               _entries[i].unit + "\"}";
    }
    return out + "}";
}

} // namespace perfbench
