#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark and the library it links (Release) under .bench_build/; later
runs only re-check the build. The last line of standard output is the
JSON result. Extra options:

    --small            reduced shapes (the benchmark's own tests)
    --expected FILE    recorded check values (default perfbench/expected.json)
    --record           store this run's check values in --expected
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then bring the build up to date. Build output
    goes to stderr so the result stays the last line of stdout."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
        check=True, stdout=sys.stderr)


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expectations(path, workload, seed, small):
    """Recorded check values for a shipped seed; none for other seeds
    or small shapes, where each run compares with its own first
    operation."""
    if small or not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f).get(workload, {}).get(str(seed), {})


def conform(result, trace, spec):
    """Check the result carries exactly the metrics BENCHMARK.json
    names, with its units. Per-layer metrics of layers a workload does
    not exercise are reported as 0."""
    metrics = result["metrics"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name not in metrics:
            if not trace:
                raise ValueError("end-to-end metric %s missing" % name)
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            raise ValueError("%s: unit %s, BENCHMARK.json says %s"
                             % (name, metrics[name]["unit"], unit))
        if not trace and not metrics[name]["value"] > 0:
            raise ValueError("end-to-end metric %s is not positive" % name)
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        raise ValueError("metrics not in BENCHMARK.json: %s"
                         % ", ".join(sorted(extra)))
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--small", action="store_true")
    p.add_argument("--expected", default=os.path.join(HERE, "expected.json"))
    p.add_argument("--record", action="store_true")
    args = p.parse_args()

    spec = benchmark_spec()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", BUILD]
    if args.small:
        cmd.append("--small")
    if not args.record:
        for key, value in sorted(expectations(
                args.expected, args.workload, args.seed, args.small).items()):
            cmd += ["--expect", "%s=%s" % (key, value)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit(proc.returncode)
    lines = proc.stdout.rstrip("\n").split("\n")

    result = conform(json.loads(lines[-1]), args.trace == 1, spec)
    if args.record:
        checks = next(l for l in lines if l.startswith("checks: "))
        recorded = {}
        if os.path.exists(args.expected):
            with open(args.expected) as f:
                recorded = json.load(f)
        recorded.setdefault(args.workload, {})[str(args.seed)] = \
            json.loads(checks[len("checks: "):])
        with open(args.expected, "w") as f:
            json.dump(recorded, f, indent=1, sort_keys=True)
            f.write("\n")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
